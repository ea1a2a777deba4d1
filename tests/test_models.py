"""Linear model training: logistic, softmax, ridge, and their gradients."""

import json

import numpy as np
import pytest

from latentsteer import (
    AttributeSchema,
    BinaryLatentClassifier,
    BundleIncompleteError,
    DimensionMismatchError,
    Hyperplane,
    LatentRegressor,
    ModelBundle,
    MultiClassLatentClassifier,
    TrainingConfig,
    UnlearnableAttributeError,
    cosine_similarity,
    fit_binary,
    fit_multiclass,
    fit_regressor,
    sample_latents,
)
from latentsteer.models import GRAD_TOL, _split, logistic_loss_and_grad, softmax_loss_and_grad


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
    assert model.positive_class == "lo"  # sorted(("hi", "lo"))[1]
    assert model.negative_class == "hi"


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


def test_fit_regressor_exact_recovery():
    Z = sample_latents(500, 8, seed=14)
    targets = 2.0 * Z[:, 0] + 1.0
    model = fit_regressor(Z, targets, TrainingConfig(seed=3))
    expected = np.zeros(8)
    expected[0] = 2.0
    np.testing.assert_allclose(model.line.direction, expected, atol=1e-6)
    assert model.line.intercept == pytest.approx(1.0, abs=1e-6)
    assert model.training_meta.test_rmse <= 1e-6


def test_fit_regressor_constant_targets():
    Z = sample_latents(300, 6, seed=15)
    model = fit_regressor(Z, np.full(300, 4.25), TrainingConfig(seed=3))
    assert np.linalg.norm(model.line.direction) <= 1e-6
    assert model.line.intercept == pytest.approx(4.25, abs=1e-6)


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


def test_fit_regressor_too_few_samples():
    with pytest.raises(UnlearnableAttributeError):
        fit_regressor(np.ones((1, 4)), [1.0], TrainingConfig(seed=0))


def test_predict_discrete_and_value():
    binary = BinaryLatentClassifier(Hyperplane(np.array([1.0, 0.0]), 0.0), "pos", "neg")
    assert binary.predict(np.array([2.0, -1.0])) == "pos"
    assert binary.predict(np.array([-2.0, 1.0])) == "neg"
    assert binary.predict(np.array([0.0, 5.0])) == "pos"  # tie goes positive

    mc = MultiClassLatentClassifier(
        np.eye(3), np.array([0.2, 0.9, 0.1]), ("c0", "c1", "c2")
    )
    assert mc.predict(np.zeros(3)) == "c1"  # argmax over (0.2, 0.9, 0.1)

    reg = LatentRegressor(Hyperplane(np.array([2.0, 0.0]), 0.0))
    assert reg.predict(np.array([1.0, 1.0])) == 2.0

    with pytest.raises(DimensionMismatchError):
        binary.predict(np.array([1.0, 2.0, 3.0]))


def test_decision_invariance_under_positive_scaling():
    X, y, _ = two_clouds(seed=12)
    model = fit_binary(X, y, TrainingConfig(seed=0), positive_class="hi")
    scaled = BinaryLatentClassifier(
        Hyperplane(7.5 * model.hyperplane.direction, 7.5 * model.hyperplane.intercept),
        model.positive_class,
        model.negative_class,
    )
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
    reg = LatentRegressor(Hyperplane(np.array([1.0, 0.0]), 0.0))
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"a": reg})  # wrong model kind


def test_bundle_rejects_mismatched_dims():
    schema = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.continuous("v", 0.0, 1.0),
    )
    b = BinaryLatentClassifier(Hyperplane(np.array([1.0, 0.0]), 0.0), "p", "n")
    r = LatentRegressor(Hyperplane(np.array([1.0, 0.0, 0.0]), 0.0))
    with pytest.raises(BundleIncompleteError):
        ModelBundle(schema, {"a": b, "v": r})


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(split_fraction=1.0)


def test_attribute_schema_validation():
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
    Y = np.array([[c == name for name in multi.class_names] for c in classes], dtype=float)
    _, gW, gb = softmax_loss_and_grad(multi.class_weights, multi.class_intercepts, Z[tr], Y[tr],
                                      cfg.l2_penalty)
    assert max(np.abs(gW).max(), np.abs(gb).max()) <= 1e-6

    for meta in (binary.training_meta, multi.training_meta):
        assert meta.grad_norm <= GRAD_TOL
        assert 1 <= meta.epochs_run < 50


def test_unpenalized_fit_on_separable_data_stays_finite():
    X, y, separable = two_clouds(seed=12)
    assert separable
    cfg = TrainingConfig(l2_penalty=0.0, seed=0)
    binary = fit_binary(X, y, cfg, positive_class="hi")
    multi = fit_multiclass(X, y, cfg)
    assert np.isfinite(binary.hyperplane.direction).all() and np.isfinite(binary.hyperplane.intercept)
    assert np.isfinite(multi.class_weights).all() and np.isfinite(multi.class_intercepts).all()
    assert binary.training_meta.test_accuracy == 1.0 == multi.training_meta.test_accuracy
    for z in X:
        assert binary.predict(z) == multi.predict(z)


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
