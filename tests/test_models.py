"""Linear model training: logistic, softmax, ridge, and their gradients."""

import json
from dataclasses import replace

import numpy as np
import pytest

from latentsteer import (
    AttributeSchema,
    BundleIncompleteError,
    DimensionMismatchError,
    LatentModel,
    ModelBundle,
    TrainingConfig,
    UnlearnableAttributeError,
    cosine_similarity,
    fit_binary,
    fit_multiclass,
    fit_regressor,
    sample_latents,
    split_folds,
)
from latentsteer import models
from latentsteer.models import (GRAD_TOL, HESSIAN_ROWS, _newton, _split,
                                logistic_loss_and_grad, softmax_loss_and_grad)


def two_clouds(seed=12, n_per=100, center=3.0):
    """2-D clouds around (+-center, 0); returns latents, labels, separability flag."""
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n_per, 2)) + [center, 0.0]
    neg = rng.standard_normal((n_per, 2)) + [-center, 0.0]
    X = np.vstack([pos, neg])
    y = ["hi"] * n_per + ["lo"] * n_per
    separable = bool(np.all(pos[:, 0] > 0) and np.all(neg[:, 0] < 0))
    return X, y, separable


def test_fit_binary_separable_clouds():
    X, y, separable = two_clouds(seed=12)
    # oracle: the true separator x0 = 0 must classify every drawn point
    assert separable, "draw not separable by the known boundary; pick another seed"
    model = fit_binary(X, y, TrainingConfig(seed=0), positive_class="hi")
    assert model.training_meta.test_accuracy == 1.0
    assert cosine_similarity(model.hyperplane.direction, [1.0, 0.0]) >= 0.99


def test_fit_binary_single_class_rejected():
    X = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(UnlearnableAttributeError):
        fit_binary(X, ["same"] * 10, TrainingConfig(seed=0))


def test_fit_binary_deterministic():
    X, y, _ = two_clouds(seed=4)
    cfg = TrainingConfig(seed=3)
    a = fit_binary(X, y, cfg)
    b = fit_binary(X, y, cfg)
    np.testing.assert_array_equal(a.hyperplane.direction, b.hyperplane.direction)
    assert a.hyperplane.intercept == b.hyperplane.intercept
    assert a.training_meta == b.training_meta


def test_fit_binary_recovers_ground_truth_direction():
    # noiseless linear ground truth at scale: labels from sign(g . z)
    rng = np.random.default_rng(8)
    g = rng.standard_normal(64)
    g /= np.linalg.norm(g)
    Z = sample_latents(10000, 64, seed=21)
    labels = ["pos" if g @ z > 0 else "neg" for z in Z]
    model = fit_binary(Z, labels, TrainingConfig(seed=2), positive_class="pos")
    assert cosine_similarity(model.hyperplane.direction, g) >= 0.98


def test_fit_binary_positive_class_default_is_sorted():
    X, y, _ = two_clouds(seed=12)
    model = fit_binary(X, y, TrainingConfig(seed=0))
    assert model.classes == ("hi", "lo")  # (negative, positive): sorted(("hi", "lo"))[1] is positive


def three_clouds(seed=5, n_per=100, radius=3.0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i, angle in enumerate((0.0, 2 * np.pi / 3, 4 * np.pi / 3)):
        c = radius * np.array([np.cos(angle), np.sin(angle)])
        X.append(rng.standard_normal((n_per, 2)) + c)
        y += [f"c{i}"] * n_per
    return np.vstack(X), y


def nearest_centroid_accuracy(Xtr, ytr, Xte, yte):
    names = sorted(set(ytr))
    ytr = np.asarray(ytr)
    cents = np.stack([Xtr[ytr == c].mean(axis=0) for c in names])
    d = ((Xte[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    pred = [names[i] for i in d.argmin(axis=1)]
    return float(np.mean([p == t for p, t in zip(pred, yte)]))


def test_fit_multiclass_three_clouds():
    X, y = three_clouds(seed=5)
    cfg = TrainingConfig(seed=1)
    model = fit_multiclass(X, y, cfg)
    # independent oracle on the same draw and the same split
    tr, te = _split(len(y), cfg)
    y_arr = np.asarray(y)
    oracle_acc = nearest_centroid_accuracy(X[tr], y_arr[tr], X[te], y_arr[te])
    assert oracle_acc >= 0.95, "draw too hard for the centroid oracle; pick another seed"
    assert model.training_meta.test_accuracy >= 0.95


def test_fit_multiclass_missing_class_rejected():
    X, y = three_clouds(seed=5)
    with pytest.raises(UnlearnableAttributeError):
        fit_multiclass(X, y, TrainingConfig(seed=0), class_names=("c0", "c1", "c2", "ghost"))


def test_fit_multiclass_two_class_decisions_match_binary():
    # argmax of a 2-class softmax is a sign rule; decisions agree wherever the
    # data actually lives, so probe with the held-out cloud points
    X, y, separable = two_clouds(seed=12)
    assert separable
    cfg = TrainingConfig(seed=6)
    soft = fit_multiclass(X, y, cfg)
    hard = fit_binary(X, y, cfg, positive_class="hi")
    _, te = _split(len(y), cfg)
    for z in X[te]:
        assert soft.predict(z) == hard.predict(z)


def test_fit_multiclass_class_order_permutation_is_relabeling():
    X, y = three_clouds(seed=5)
    cfg = TrainingConfig(seed=1)
    a = fit_multiclass(X, y, cfg, class_names=("c0", "c1", "c2"))
    b = fit_multiclass(X, y, cfg, class_names=("c2", "c0", "c1"))
    probe = sample_latents(200, 2, seed=10) * 3.0
    for z in probe:
        assert a.predict(z) == b.predict(z)


@pytest.mark.parametrize("fit", [fit_binary, fit_multiclass, fit_regressor])
@pytest.mark.parametrize("change", [{"seed": 4}, {"split_fraction": 0.7}])
def test_a_fit_rejects_folds_drawn_with_another_split(fit, change):
    X, y = three_clouds(20) if fit is fit_multiclass else two_clouds(30)[:2]
    targets = X[:, 0] if fit is fit_regressor else y
    cfg = TrainingConfig(seed=3)
    folds = split_folds(X, cfg)
    shared, own = fit(folds, targets, cfg), fit(X, targets, cfg)
    assert shared.weights.tobytes() == own.weights.tobytes()
    assert shared.training_meta == own.training_meta
    with pytest.raises(ValueError, match="folds drawn with split_fraction=0.8, seed=3"):
        fit(folds, targets, replace(cfg, **change))


def test_fit_regressor_exact_recovery():
    Z = sample_latents(500, 8, seed=14)
    targets = 2.0 * Z[:, 0] + 1.0
    model = fit_regressor(Z, targets, TrainingConfig(seed=3))
    expected = np.zeros(8)
    expected[0] = 2.0
    np.testing.assert_allclose(model.hyperplane.direction, expected, atol=1e-6)
    assert model.hyperplane.intercept == pytest.approx(1.0, abs=1e-6)
    assert model.training_meta.test_rmse <= 1e-6


def test_fit_regressor_constant_targets():
    Z = sample_latents(300, 6, seed=15)
    model = fit_regressor(Z, np.full(300, 4.25), TrainingConfig(seed=3))
    assert np.linalg.norm(model.hyperplane.direction) <= 1e-6
    assert model.hyperplane.intercept == pytest.approx(4.25, abs=1e-6)


def test_fit_regressor_beats_mean_predictor_on_sigmoid_targets():
    rng = np.random.default_rng(16)
    g = rng.standard_normal(64)
    g /= np.linalg.norm(g)
    Z = sample_latents(10000, 64, seed=17)
    targets = 1.0 / (1.0 + np.exp(-(Z @ g)))
    cfg = TrainingConfig(seed=4)
    model = fit_regressor(Z, targets, cfg)
    tr, te = _split(len(targets), cfg)
    mean_rmse = float(np.sqrt(np.mean((targets[te] - targets[tr].mean()) ** 2)))
    assert np.isfinite(model.training_meta.test_rmse)
    assert model.training_meta.test_rmse < mean_rmse


@pytest.mark.parametrize("latents, message", [
    (np.array([[0.0, np.nan]] * 10), "NaN or Inf"),
    (np.array([[np.inf, 0.0]] * 10), "NaN or Inf"),
    (np.zeros((10, 1)), "dim >= 2, got shape \\(10, 1\\)"),
    (np.zeros(10), "got shape \\(10,\\)"),
], ids=["nan", "inf", "one column", "1-d"])
@pytest.mark.parametrize("fit", ["binary", "multiclass", "regressor"])
def test_fits_reject_latents_that_are_not_a_finite_matrix(fit, latents, message):
    labels = {"binary": ["n", "p"] * 5, "multiclass": ["a", "b"] * 5, "regressor": [0.5] * 10}[fit]
    fitter = {"binary": fit_binary, "multiclass": fit_multiclass, "regressor": fit_regressor}[fit]
    with pytest.raises(ValueError, match=message):
        fitter(latents, labels, TrainingConfig(seed=0))


@pytest.mark.parametrize("fit, labels, kwargs, error, message", [
    (fit_binary, ["n", "p"] * 4, {}, ValueError, "10 latents but 8 labels"),
    (fit_multiclass, ["a", "b", "z", "b", "a"] * 2, {"class_names": ("a", "b")},
     UnlearnableAttributeError, "labels outside the class set: \\['z'\\]"),
    (fit_binary, ["n", "p"] * 5, {"positive_class": "gown"},
     UnlearnableAttributeError, "positive class 'gown' absent from labels \\['n', 'p'\\]"),
    (fit_multiclass, ["a"] * 10, {}, UnlearnableAttributeError,
     "need at least 2 classes, got \\['a'\\]"),
    (fit_regressor, np.zeros((10, 1)), {}, ValueError,
     "10 latents but targets have shape \\(10, 1\\)"),
], ids=["label count", "unknown label", "absent positive class", "one class", "target shape"])
def test_fits_reject_labels_that_do_not_fit_the_latents(fit, labels, kwargs, error, message):
    X = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(error, match=message):
        fit(X, labels, TrainingConfig(seed=0), **kwargs)


def test_fit_regressor_too_few_samples():
    with pytest.raises(UnlearnableAttributeError):
        fit_regressor(np.ones((1, 4)), [1.0], TrainingConfig(seed=0))


def test_predict_discrete_and_value():
    binary = LatentModel("binary", [[1.0, 0.0]], [0.0], ("neg", "pos"))
    assert binary.predict(np.array([2.0, -1.0])) == "pos"
    assert binary.predict(np.array([-2.0, 1.0])) == "neg"
    assert binary.predict(np.array([0.0, 5.0])) == "pos"  # tie goes positive

    mc = LatentModel("multiclass", np.eye(3), [0.2, 0.9, 0.1], ("c0", "c1", "c2"))
    assert mc.predict(np.zeros(3)) == "c1"  # argmax over (0.2, 0.9, 0.1)

    reg = LatentModel("continuous", [[2.0, 0.0]], [0.0])
    assert reg.predict(np.array([1.0, 1.0])) == 2.0

    with pytest.raises(DimensionMismatchError):
        binary.predict(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="NaN or Inf"):
        mc.predict(np.array([np.nan, 0.0, 0.0]))  # argmax would read NaN scores as c0


def test_decision_invariance_under_positive_scaling():
    X, y, _ = two_clouds(seed=12)
    model = fit_binary(X, y, TrainingConfig(seed=0), positive_class="hi")
    scaled = LatentModel("binary", 7.5 * model.weights, 7.5 * model.intercepts, model.classes)
    for z in sample_latents(300, 2, seed=11) * 4.0:
        assert model.predict(z) == scaled.predict(z)


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


def central_diff(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        g.flat[i] = (f(x + step) - f(x - step)) / (2 * h)
    return g


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n, d = int(rng.integers(5, 20)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        t = rng.integers(0, 2, size=n).astype(float)
        w = rng.standard_normal(d) * 0.5
        b = float(rng.standard_normal())
        l2 = float(rng.uniform(0, 0.1))
        _, gw, gb = logistic_loss_and_grad(w, b, X, t, l2)
        fd_w = central_diff(lambda v: logistic_loss_and_grad(v, b, X, t, l2)[0], w)
        fd_b = central_diff(lambda v: logistic_loss_and_grad(w, float(v[0]), X, t, l2)[0],
                            np.array([b]))
        assert rel_err(gw, fd_w) < 1e-5
        assert rel_err([gb], fd_b) < 1e-5


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n, d, k = int(rng.integers(5, 20)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        Y = np.zeros((n, k))
        Y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        W = rng.standard_normal((k, d)) * 0.5
        b = rng.standard_normal(k)
        l2 = float(rng.uniform(0, 0.1))
        _, gW, gb = softmax_loss_and_grad(W, b, X, Y, l2)
        fd_W = central_diff(
            lambda v: softmax_loss_and_grad(v.reshape(k, d), b, X, Y, l2)[0], W.ravel()
        ).reshape(k, d)
        fd_b = central_diff(lambda v: softmax_loss_and_grad(W, v, X, Y, l2)[0], b)
        assert rel_err(gW, fd_W) < 1e-5
        assert rel_err(gb, fd_b) < 1e-5


def test_bundle_requires_model_per_attribute():
    schema = (AttributeSchema.binary("a", "n", "p"),)
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {})
    reg = LatentModel("continuous", [[1.0, 0.0]], [0.0])
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"a": reg})  # wrong model kind
    binary = LatentModel("binary", [[1.0, 0.0]], [0.0], ("n", "p"))
    ghost = LatentModel("continuous", np.ones((1, 5)), [0.0])
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"ghost": ghost, "a": binary})  # a model the schema does not name
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"a": LatentModel("binary", [[1.0, 0.0]], [0.0], ("n", "q"))})
    with pytest.raises(BundleIncompleteError, match="no model for attribute 'ghost'"):
        ModelBundle(schema, {"a": binary}).model_for("ghost")
    with pytest.raises(BundleIncompleteError, match="empty bundle has no latent dimension"):
        ModelBundle((), {}).latent_dim


@pytest.mark.parametrize("kind,weights,intercepts,classes", [
    ("regressor", [[1.0, 0.0]], [0.0], ()),                        # unknown kind
    ("binary", [[1.0, 0.0]], [0.0], ("p",)),                       # one class
    ("binary", [[1.0, 0.0]], [0.0], ("p", "p")),                   # duplicate classes
    ("binary", [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], ("n", "p")),  # two rows
    ("continuous", [[1.0, 0.0]], [0.0], ("x",)),                   # classes on a regressor
    ("continuous", [1.0, 0.0], [0.0], ()),                         # 1-D weights
    ("continuous", [[1.0, 0.0]], [0.0, 1.0], ()),                  # rows disagree
    ("multiclass", np.eye(3), np.zeros(3), ("a", "b")),            # rows disagree with classes
    ("multiclass", np.eye(3), np.zeros(3), ("a", "b", "a")),       # duplicate classes
    ("multiclass", np.eye(1), np.zeros(1), ("a",)),                # one class
    ("binary", [[np.nan, 0.0]], [0.0], ("n", "p")),                # non-finite weight
    ("continuous", [[1.0, 0.0]], [np.inf], ()),                    # non-finite intercept
])
def test_latent_model_validation(kind, weights, intercepts, classes):
    with pytest.raises(ValueError):
        LatentModel(kind, weights, intercepts, classes)


def test_latent_model_is_read_only_rows():
    source = np.eye(3)
    model = LatentModel("multiclass", source, np.zeros(3), ["a", "b", "c"])
    source[0, 0] = 5.0
    assert model.weights[0, 0] == 1.0 and model.classes == ("a", "b", "c") and model.dim == 3
    with pytest.raises(ValueError):
        model.weights[0, 0] = 2.0
    with pytest.raises(ValueError):
        model.hyperplane  # no single boundary for a multiclass model
    np.testing.assert_array_equal(model.one_vs_rest_direction("b"), [-0.5, 1.0, -0.5])
    reg = LatentModel("continuous", [[3.0, 4.0]], [1.0])
    plane = reg.hyperplane
    np.testing.assert_array_equal(plane.direction, [3.0, 4.0])
    assert plane.intercept == 1.0 and reg.predict(np.array([1.0, 1.0])) == 8.0


def test_bundle_rejects_mismatched_dims():
    schema = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.continuous("v", 0.0, 1.0),
    )
    b = LatentModel("binary", [[1.0, 0.0]], [0.0], ("n", "p"))
    r = LatentModel("continuous", [[1.0, 0.0, 0.0]], [0.0])
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"a": b, "v": r})


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError, match="l2_penalty must be non-negative"):
        TrainingConfig(l2_penalty=-1e-4)
    with pytest.raises(ValueError):
        TrainingConfig(split_fraction=1.0)


def test_attribute_schema_validation():
    with pytest.raises(ValueError, match="attribute name must be non-empty"):
        AttributeSchema.binary("", "n", "p")
    with pytest.raises(ValueError, match="unknown attribute kind 'ordinal'"):
        AttributeSchema("o", "ordinal", ("a", "b"))
    with pytest.raises(ValueError, match="binary attribute 'b' needs exactly 2 classes"):
        AttributeSchema("b", "binary", ("a", "b", "c"))
    with pytest.raises(ValueError):
        AttributeSchema.multiclass("m", ("a", "b"))
    with pytest.raises(ValueError):
        AttributeSchema.binary("b", "same", "same")
    with pytest.raises(ValueError):
        AttributeSchema.continuous("c", 1.0, 1.0)


def noisy_linear_labels(n=4000, dim=16, seed=40):
    """Latents labelled by a noisy linear rule over three directions: neither fit is separable."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((3, dim))
    Z = sample_latents(n, dim, seed=seed + 1)
    scores = Z @ G.T + rng.standard_normal((n, 3))
    return Z, [("c0", "c1", "c2")[i] for i in scores.argmax(axis=1)], scores[:, 0] >= 0


def test_default_fits_are_stationary_points():
    Z, classes, positive = noisy_linear_labels()
    cfg = TrainingConfig()
    tr, _ = _split(len(Z), cfg)

    binary = fit_binary(Z, ["pos" if p else "neg" for p in positive], cfg, positive_class="pos")
    plane = binary.hyperplane
    _, gw, gb = logistic_loss_and_grad(plane.direction, plane.intercept, Z[tr],
                                       positive[tr].astype(float), cfg.l2_penalty)
    assert max(np.abs(gw).max(), abs(gb)) <= 1e-6

    multi = fit_multiclass(Z, classes, cfg)
    Y = np.array([[c == name for name in multi.classes] for c in classes], dtype=float)
    _, gW, gb = softmax_loss_and_grad(multi.weights, multi.intercepts, Z[tr], Y[tr],
                                      cfg.l2_penalty)
    assert max(np.abs(gW).max(), np.abs(gb).max()) <= 1e-6

    for meta in (binary.training_meta, multi.training_meta):
        assert meta.grad_norm <= GRAD_TOL
        assert 1 <= meta.epochs_run < 50


@pytest.mark.parametrize("column", ["dead", "duplicate", "near-duplicate"])
def test_unpenalized_fit_with_a_degenerate_column_takes_the_minimum_norm_steps(column):
    # at l2 = 0 a zero, repeated or nearly repeated column leaves H singular or nearly so
    # beyond the shared class shifts
    Z, classes, positive = noisy_linear_labels(n=1000, dim=6)
    Z = Z.copy()
    if column == "dead":
        Z[:, 2] = 0.0
    elif column == "duplicate":
        Z[:, 2] = Z[:, 1]
    else:  # the near-null direction ends on a column with a small coefficient
        noise = np.random.default_rng(5).standard_normal(len(Z))
        Z[:, 2] = Z[:, 1] + 1e-2 * Z[:, 5] + 1e-9 * noise
    cfg = TrainingConfig(l2_penalty=0.0)
    binary = fit_binary(Z, ["pos" if p else "neg" for p in positive], cfg, positive_class="pos")
    multi = fit_multiclass(Z, classes, cfg)
    for model in (binary, multi):
        meta, W = model.training_meta, model.weights
        assert meta.grad_norm <= GRAD_TOL and meta.epochs_run >= 3
        assert np.abs(W[:, [0, 1, 3]]).min() > 1e-3  # the live columns are used
        if column == "dead":
            assert np.abs(W[:, 2]).max() < 1e-12
        elif column == "duplicate":  # the minimum-norm weights split evenly between the copies
            assert np.abs(W[:, 2] - W[:, 1]).max() < 1e-9 * np.abs(W).max()
    names = sorted(set(classes))
    for Y in (np.eye(2)[positive.astype(int)], np.eye(3)[[names.index(c) for c in classes]]):
        for max_iter in (1, 100):  # the first step alone, and the whole fit
            W, b, _, _, steps = _newton(Z, Y, 0.0, max_iter)
            W_ref, b_ref, _, _, steps_ref = _reference_newton(Z, Y, 0.0, max_iter)
            assert steps == steps_ref
            assert np.abs(W - W_ref).max() <= 1e-10 * np.abs(W_ref).max()
            assert np.abs(b - b_ref).max() <= 1e-10 * np.abs(b_ref).max()


def test_unpenalized_fit_on_separable_data_stays_finite():
    X, y, separable = two_clouds(seed=12)
    assert separable
    cfg = TrainingConfig(l2_penalty=0.0, seed=0)
    binary = fit_binary(X, y, cfg, positive_class="hi")
    multi = fit_multiclass(X, y, cfg)
    assert np.isfinite(binary.hyperplane.direction).all() and np.isfinite(binary.hyperplane.intercept)
    assert np.isfinite(multi.weights).all() and np.isfinite(multi.intercepts).all()
    assert binary.training_meta.test_accuracy == 1.0 == multi.training_meta.test_accuracy
    for z in X:
        assert binary.predict(z) == multi.predict(z)


def test_newton_halves_a_step_that_raises_the_loss(monkeypatch):
    # far points with flipped labels: a full Newton step from the fourth iterate overshoots
    rng = np.random.default_rng(268)
    X = rng.standard_normal((23, 3))
    y = (X[:, 0] > 0).astype(int)
    far = rng.choice(23, 3, replace=False)
    X[far] *= 20.0
    y[far] = 1 - y[far]
    losses = []
    terms = models._softmax_terms

    def recorded(*args):
        out = terms(*args)
        losses.append(out[0])
        return out

    monkeypatch.setattr(models, "_softmax_terms", recorded)
    _, _, loss, grad_norm, steps = _newton(X, np.eye(2)[y], 0.0, 50)
    accepted, rejected = [losses[0]], []
    for trial in losses[1:]:
        (accepted if trial < accepted[-1] else rejected).append(trial)
    assert rejected and min(rejected) > accepted[3]  # trials from the fourth iterate rose
    assert len(accepted) == steps + 1 and accepted[-1] == loss  # the loss still falls every step
    assert grad_norm <= GRAD_TOL


def test_newton_stops_when_no_halving_lowers_the_loss():
    # at latents of scale 1e8 the loss stops falling in its last bits while max |grad| is
    # still far above GRAD_TOL: forty halvings lower nothing, and the fit stops early
    rng = np.random.default_rng(7)
    X = rng.standard_normal((23, 3)) * 1e8
    y = (X[:, 0] + 1e8 * rng.standard_normal(23) > 0).astype(int)
    _, _, loss, grad_norm, steps = _newton(X, np.eye(2)[y], 0.0, 100)
    assert steps < 100 and grad_norm > GRAD_TOL and np.isfinite(loss)


def _reference_newton(X, Y, l2, max_iter):
    """The damped Newton fit with every Hessian block computed from the data."""
    (n, d), k = X.shape, Y.shape[1]
    W, b = np.zeros((k, d)), np.zeros(k)
    loss, gW, gb = softmax_loss_and_grad(W, b, X, Y, l2)
    steps = 0
    while True:
        g = np.hstack([gW, gb[:, None]]).ravel()
        if steps == max_iter or np.abs(g).max() <= GRAD_TOL:
            break
        logits = X @ W.T + b
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        H = np.empty((k, d + 1, k, d + 1))
        for a in range(k):
            for c in range(k):
                s = P[:, a] * (float(a == c) - P[:, c]) / n
                H[a, :d, c, :d] = X.T @ (X * s[:, None]) + (l2 * np.eye(d) if a == c else 0.0)
                H[a, :d, c, d] = H[a, d, c, :d] = s @ X
                H[a, d, c, d] = s.sum()
        H = H.reshape(k * (d + 1), k * (d + 1))
        step = np.linalg.lstsq(H, -g, rcond=None)[0].reshape(k, d + 1)
        t = 1.0
        while t > 1e-12:
            trial = softmax_loss_and_grad(W + t * step[:, :d], b + t * step[:, d], X, Y, l2)
            if trial[0] <= loss + 1e-4 * t * float(g @ step.ravel()):
                break
            t /= 2
        else:
            break
        W, b = W + t * step[:, :d], b + t * step[:, d]
        loss, gW, gb = trial
        steps += 1
    return W, b, loss, float(np.abs(g).max()), steps


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("l2", [0.0, 1e-4, 1e-2])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_newton_matches_full_block_reference(k, l2, seed):
    rng = np.random.default_rng(seed)
    n = 2 * HESSIAN_ROWS + 77  # two full row slices and a partial one
    X = rng.standard_normal((n, 5)) * rng.uniform(0.5, 3.0, size=5)
    y = np.argmax(X @ rng.standard_normal((k, 5)).T + rng.gumbel(size=(n, k)), axis=1)
    Y = np.eye(k)[y]
    W, b, loss, grad_norm, steps = _newton(X, Y, l2, 100)
    W_ref, b_ref, _, _, steps_ref = _reference_newton(X, Y, l2, 100)
    assert steps == steps_ref and grad_norm <= GRAD_TOL
    assert np.abs(W - W_ref).max() <= 1e-10 * np.abs(W_ref).max()
    assert np.abs(b - b_ref).max() <= 1e-10 * np.abs(b_ref).max()


def test_old_bundle_payload_with_descent_knobs_loads_and_resaves_without_them():
    from latentsteer import BundleProvenance
    from latentsteer.persist import bundle_to_payload, json_bytes, payload_to_bundle

    X, y, _ = two_clouds(seed=12)
    cfg = TrainingConfig(epochs=40, seed=0)
    model = fit_binary(X, y, cfg, positive_class="hi")
    schema = (AttributeSchema.binary("side", "lo", "hi"),)
    payload = bundle_to_payload(ModelBundle(schema, {"side": model},
                                            BundleProvenance(1, 200, cfg, {"side": 1.0})))
    old = json.loads(json_bytes(payload))
    old["provenance"]["training_config"].update(learning_rate=1.0, momentum=0.98)
    del old["models"]["side"]["training_meta"]["grad_norm"]

    loaded = payload_to_bundle(old)
    assert np.isnan(loaded.models["side"].training_meta.grad_norm)
    assert loaded.provenance.train_config == TrainingConfig(epochs=40, seed=0)
    resaved = bundle_to_payload(loaded)
    assert set(resaved["provenance"]["training_config"]) == {
        "epochs", "l2_penalty", "split_fraction", "seed"}
    assert resaved["models"]["side"]["training_meta"]["grad_norm"] is None
    assert json_bytes(bundle_to_payload(payload_to_bundle(resaved))) == json_bytes(resaved)
