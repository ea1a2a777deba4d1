"""Conditioning engine: choose vectors, crossing moves, calibration, combined steps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentsteer import (
    AttributeSchema,
    ChooseVector,
    ConditioningError,
    ConditioningSpec,
    DegenerateModelError,
    DimensionMismatchError,
    DirectorConfig,
    LatentModel,
    ModelBundle,
    condition,
    condition_batch,
    latent_labels,
    sample_latents,
    signed_distance,
)


def binary_bundle(direction=(1.0, 0.0), intercept=0.0, name="flag"):
    schema = (AttributeSchema.binary(name, "neg", "pos"),)
    model = LatentModel("binary", [direction], [intercept], ("neg", "pos"))
    return ModelBundle(schema, {name: model})


def regressor_bundle(direction=(2.0, 0.0), intercept=0.0, name="level", lo=-100.0, hi=100.0):
    schema = (AttributeSchema.continuous(name, lo, hi),)
    model = LatentModel("continuous", [direction], [intercept])
    return ModelBundle(schema, {name: model})


def test_latent_labels_binary_and_regressor():
    bundle = binary_bundle()
    labels = latent_labels(bundle, np.array([2.0, 0.0]))
    assert labels.discrete == {"flag": "pos"}

    reg = regressor_bundle()
    labels = latent_labels(reg, np.array([1.0, 1.0]))
    assert labels.continuous == {"level": 2.0}

    # the tie rule: a binary score of 0 is positive, a multiclass tie goes to the lowest index
    assert latent_labels(bundle, np.array([0.0, 3.0])).discrete == {"flag": "pos"}
    weights = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mc = ModelBundle((AttributeSchema.multiclass("m", ("c0", "c1", "c2")),),
                     {"m": LatentModel("multiclass", weights, np.zeros(3), ("c0", "c1", "c2"))})
    assert latent_labels(mc, np.array([1.0, 0.0])).discrete == {"m": "c0"}


def test_latent_labels_empty_schema():
    bundle = ModelBundle((), {})
    labels = latent_labels(bundle, np.array([1.0, 2.0]))
    assert labels.discrete == {} and labels.continuous == {}


def test_choose_vector_cases():
    schema = (AttributeSchema.binary("style", "tee", "dress"),
              AttributeSchema.binary("pose", "back", "front"))
    models = {
        "style": LatentModel("binary", [[1.0, 0.0]], [0.0], ("tee", "dress")),
        "pose": LatentModel("binary", [[0.0, 1.0]], [0.0], ("back", "front")),
    }
    bundle = ModelBundle(schema, models)
    z = np.array([-1.0, 1.0])  # style tee, pose front
    assert condition(z, ConditioningSpec({"style": "tee"}), bundle).choose.bits == (0, 0)
    cv = condition(z, ConditioningSpec({"style": "dress", "pose": "front"}), bundle).choose
    assert cv.as_dict() == {"style": 1, "pose": 0}
    assert condition(z, ConditioningSpec(), bundle).choose.bits == (0, 0)
    with pytest.raises(ConditioningError):
        condition(z, ConditioningSpec({"ghost": "x"}), bundle)
    with pytest.raises(ValueError, match="equal length"):
        ChooseVector(("style", "pose"), (1,))
    with pytest.raises(ValueError, match="0 or 1"):
        ChooseVector(("style",), (2,))


@pytest.mark.parametrize("Z, n_specs, error, message", [
    (np.zeros(2), 2, ValueError, "finite \\(n, dim\\) array"),
    (np.array([[0.0, np.nan]]), 1, ValueError, "finite \\(n, dim\\) array"),
    (np.array([[0.0, np.inf]]), 1, ValueError, "finite \\(n, dim\\) array"),
    (np.zeros((1, 3)), 1, DimensionMismatchError, "expected 2, got 3"),
    (np.zeros((2, 2)), 1, ValueError, "2 latents but 1 conditioning specs"),
    (np.zeros((1, 2)), 2, ValueError, "1 latents but 2 conditioning specs"),
], ids=["1-d", "nan", "inf", "dim", "fewer specs", "more specs"])
def test_condition_batch_rejects_bad_latents_and_spec_counts(Z, n_specs, error, message):
    with pytest.raises(error, match=message):
        condition_batch(Z, [ConditioningSpec()] * n_specs, binary_bundle())


def test_condition_binary_corrected_hand_value():
    # frozen by hand: z=(-2,3), boundary x0=0, desired pos, delta=0.5 -> (0.5, 3)
    bundle = binary_bundle()
    cfg = DirectorConfig(delta_margin=0.5)
    report = condition(np.array([-2.0, 3.0]), ConditioningSpec({"flag": "pos"}), bundle, cfg)
    np.testing.assert_allclose(report.z_prime, [0.5, 3.0], atol=1e-12)
    h = bundle.models["flag"].hyperplane
    assert abs(signed_distance(report.z_prime, h)) == pytest.approx(0.5, abs=1e-9)
    assert report.labels_after.discrete["flag"] == "pos"
    assert report.distances_before["flag"] == 2.0


def test_condition_noop_is_bit_exact():
    bundle = binary_bundle()
    z = np.array([3.7, -0.0])
    report = condition(z, ConditioningSpec({"flag": "pos"}), bundle)
    assert report.z_prime is report.z
    np.testing.assert_array_equal(report.z_prime, z)
    assert not report.moved


def test_condition_continuous_calibrated_vs_literal_hand_values():
    # slope (2,0): prediction changes by 2 per unit moved along the slope
    bundle = regressor_bundle()
    z = np.array([1.0, 1.0])
    spec = ConditioningSpec(continuous={"level": 3.0})

    calibrated = condition(z, spec, bundle, DirectorConfig(continuous_calibration="calibrated"))
    np.testing.assert_allclose(calibrated.z_prime, [1.5, 1.0], atol=1e-12)
    assert bundle.models["level"].predict(calibrated.z_prime) == pytest.approx(3.0, abs=1e-12)

    literal = condition(z, spec, bundle, DirectorConfig(continuous_calibration="paper_literal"))
    np.testing.assert_allclose(literal.z_prime, [2.0, 1.0], atol=1e-12)
    assert bundle.models["level"].predict(literal.z_prime) == pytest.approx(4.0, abs=1e-12)
    assert calibrated.deltas == {"level": 1.0}


def test_condition_mixed_orthogonal_hand_value():
    # flip the binary along e0 and add 2.0 along the unit slope e1; e2 untouched
    schema = (
        AttributeSchema.binary("flag", "neg", "pos"),
        AttributeSchema.continuous("level", -100.0, 100.0),
    )
    models = {
        "flag": LatentModel("binary", [[1.0, 0.0, 0.0]], [0.0], ("neg", "pos")),
        "level": LatentModel("continuous", [[0.0, 1.0, 0.0]], [0.0]),
    }
    bundle = ModelBundle(schema, models)
    z = np.array([-2.0, 0.0, 7.0])
    spec = ConditioningSpec({"flag": "pos"}, {"level": 2.0})
    report = condition(z, spec, bundle, DirectorConfig(delta_margin=0.5))
    np.testing.assert_allclose(report.z_prime, [0.5, 2.0, 7.0], atol=1e-12)


def test_crossing_guarantee_both_directions():
    rng = np.random.default_rng(42)
    cfg = DirectorConfig(delta_margin=0.5)
    for trial in range(300):
        dim = int(rng.integers(2, 9))
        direction = rng.standard_normal(dim)
        while np.linalg.norm(direction) < 1e-6:
            direction = rng.standard_normal(dim)
        model = LatentModel("binary", [direction], [rng.standard_normal()], ("neg", "pos"))
        bundle = ModelBundle((AttributeSchema.binary("flag", "neg", "pos"),), {"flag": model})
        z = rng.standard_normal(dim)
        current = model.predict(z)
        desired = "pos" if current == "neg" else "neg"
        report = condition(z, ConditioningSpec({"flag": desired}), bundle, cfg)
        assert report.labels_after.discrete["flag"] == desired
        assert abs(abs(signed_distance(report.z_prime, model.hyperplane)) - 0.5) < 1e-9


def test_crossing_from_exact_boundary():
    # score exactly 0 classifies as pos; desiring neg must still cross
    bundle = binary_bundle()
    z = np.array([0.0, 2.0])
    report = condition(z, ConditioningSpec({"flag": "neg"}), bundle, DirectorConfig(delta_margin=0.5))
    assert report.labels_after.discrete["flag"] == "neg"
    np.testing.assert_allclose(report.z_prime, [-0.5, 2.0], atol=1e-12)


def test_paper_literal_never_crosses_from_negative_side():
    rng = np.random.default_rng(43)
    cfg = DirectorConfig(delta_margin=0.5, sign_convention="paper_literal")
    for _ in range(300):
        direction = rng.standard_normal(4)
        model = LatentModel("binary", [direction], [rng.standard_normal()], ("neg", "pos"))
        bundle = ModelBundle((AttributeSchema.binary("flag", "neg", "pos"),), {"flag": model})
        z = rng.standard_normal(4)
        if model.predict(z) == "pos":
            continue
        report = condition(z, ConditioningSpec({"flag": "pos"}), bundle, cfg)
        assert report.labels_after.discrete["flag"] == "neg"  # stuck on the wrong side


def test_idempotence_single_binary():
    rng = np.random.default_rng(44)
    cfg = DirectorConfig(delta_margin=0.5)
    for _ in range(100):
        direction = rng.standard_normal(5)
        model = LatentModel("binary", [direction], [0.1], ("neg", "pos"))
        bundle = ModelBundle((AttributeSchema.binary("flag", "neg", "pos"),), {"flag": model})
        z = rng.standard_normal(5)
        desired = "neg" if model.predict(z) == "pos" else "pos"
        spec = ConditioningSpec({"flag": desired})
        first = condition(z, spec, bundle, cfg)
        second = condition(first.z_prime, spec, bundle, cfg)
        assert not second.choose.any_set
        np.testing.assert_array_equal(second.z_prime, first.z_prime)


def test_multiclass_conditioning_crosses_to_desired():
    rng = np.random.default_rng(45)
    weights = np.vstack([np.eye(3), ])  # 3 classes along orthogonal axes
    model = LatentModel("multiclass", weights, np.zeros(3), ("c0", "c1", "c2"))
    bundle = ModelBundle((AttributeSchema.multiclass("m", ("c0", "c1", "c2")),), {"m": model})
    cfg = DirectorConfig(delta_margin=0.5)
    for _ in range(200):
        z = rng.standard_normal(3)
        current = model.predict(z)
        desired = rng.choice([c for c in ("c0", "c1", "c2") if c != current])
        report = condition(z, ConditioningSpec({"m": str(desired)}), bundle, cfg)
        assert report.labels_after.discrete["m"] == desired
        assert 1 <= report.multiclass_moves["m"] <= 3


def test_multiclass_moves_toward_desired_in_any_sign_mode():
    # sign_convention governs binary moves only; multiclass always crosses
    model = LatentModel("multiclass", np.eye(3), np.zeros(3), ("c0", "c1", "c2"))
    bundle = ModelBundle((AttributeSchema.multiclass("m", ("c0", "c1", "c2")),), {"m": model})
    z = np.array([3.0, 0.0, 0.0])
    for sign_mode in ("corrected", "paper_literal"):
        rep = condition(z, ConditioningSpec({"m": "c2"}), bundle,
                        DirectorConfig(sign_convention=sign_mode))
        assert rep.labels_after.discrete["m"] == "c2"


def test_multiclass_already_satisfied_is_noop():
    model = LatentModel("multiclass", np.eye(3), np.zeros(3), ("c0", "c1", "c2"))
    bundle = ModelBundle((AttributeSchema.multiclass("m", ("c0", "c1", "c2")),), {"m": model})
    z = np.array([5.0, 0.0, 0.0])
    report = condition(z, ConditioningSpec({"m": "c0"}), bundle)
    np.testing.assert_array_equal(report.z_prime, z)
    assert report.multiclass_moves == {}


def test_orthogonal_superposition():
    # with orthogonal model directions, joint conditioning equals per-attribute conditioning
    rng = np.random.default_rng(46)
    dim = 8
    basis = np.linalg.qr(rng.standard_normal((dim, 3)))[0].T
    schema = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.binary("b", "n", "p"),
        AttributeSchema.continuous("v", -100.0, 100.0),
    )
    models = {
        "a": LatentModel("binary", [basis[0]], [0.2], ("n", "p")),
        "b": LatentModel("binary", [basis[1]], [-0.3], ("n", "p")),
        "v": LatentModel("continuous", [1.7 * basis[2]], [0.1]),
    }
    bundle = ModelBundle(schema, models)
    cfg = DirectorConfig(delta_margin=0.5)
    for _ in range(50):
        z = rng.standard_normal(dim)
        labels = latent_labels(bundle, z)
        spec_a = ConditioningSpec({"a": "p" if labels.discrete["a"] == "n" else "n"})
        spec_b = ConditioningSpec({"b": "p" if labels.discrete["b"] == "n" else "n"})
        spec_v = ConditioningSpec(continuous={"v": labels.continuous["v"] + 1.5})
        joint = ConditioningSpec(
            {**spec_a.discrete, **spec_b.discrete}, dict(spec_v.continuous)
        )
        z_joint = condition(z, joint, bundle, cfg).z_prime
        for single_spec, name in ((spec_a, "a"), (spec_b, "b")):
            z_single = condition(z, single_spec, bundle, cfg).z_prime
            s_single = signed_distance(z_single, models[name].hyperplane)
            s_joint = signed_distance(z_joint, models[name].hyperplane)
            assert abs(s_single - s_joint) < 1e-9
        v_single = models["v"].predict(condition(z, spec_v, bundle, cfg).z_prime)
        v_joint = models["v"].predict(z_joint)
        assert abs(v_single - v_joint) < 1e-9


def test_scale_invariance_of_discrete_moves():
    rng = np.random.default_rng(47)
    direction = rng.standard_normal(6)
    schema = (AttributeSchema.binary("a", "n", "p"),
              AttributeSchema.multiclass("m", ("c0", "c1", "c2")))
    W = rng.standard_normal((3, 6))
    b3 = rng.standard_normal(3)
    for lam in (0.1, 1.0, 5.0, 250.0):
        models = {
            "a": LatentModel("binary", [lam * direction], [lam * 0.4], ("n", "p")),
            "m": LatentModel("multiclass", lam * W, lam * b3, ("c0", "c1", "c2")),
        }
        bundle = ModelBundle(schema, models)
        z = sample_latents(1, 6, seed=8)[0]
        labels = latent_labels(bundle, z)
        spec = ConditioningSpec({
            "a": "p" if labels.discrete["a"] == "n" else "n",
            "m": {"c0": "c1", "c1": "c2", "c2": "c0"}[labels.discrete["m"]],
        })
        z_prime = condition(z, spec, bundle, DirectorConfig(delta_margin=0.5)).z_prime
        if lam == 0.1:
            reference = z_prime
        else:
            np.testing.assert_allclose(z_prime, reference, atol=1e-9)


def test_condition_validates_spec():
    bundle = binary_bundle()
    with pytest.raises(ConditioningError, match="both discrete and continuous"):
        ConditioningSpec({"flag": "pos"}, {"flag": 0.5})
    with pytest.raises(ConditioningError):
        condition(np.zeros(2), ConditioningSpec({"ghost": "pos"}), bundle)
    with pytest.raises(ConditioningError):
        condition(np.zeros(2), ConditioningSpec({"flag": "maybe"}), bundle)
    reg = regressor_bundle(lo=0.0, hi=1.0)
    with pytest.raises(ConditioningError):
        condition(np.zeros(2), ConditioningSpec(continuous={"level": 2.0}), reg)
    with pytest.raises(ConditioningError):
        condition(np.zeros(2), ConditioningSpec(continuous={"flag": 0.5}), bundle)
    with pytest.raises(ConditioningError, match="is continuous"):
        condition(np.zeros(2), ConditioningSpec({"level": "high"}), reg)
    with pytest.raises(ConditioningError, match="unknown attribute 'ghost'"):
        condition(np.zeros(2), ConditioningSpec(continuous={"ghost": 0.5}), reg)


def test_condition_rejects_degenerate_regressor():
    schema = (AttributeSchema.continuous("level", -10.0, 10.0),)
    model = LatentModel("continuous", np.zeros((1, 2)), [1.0])
    bundle = ModelBundle(schema, {"level": model})
    with pytest.raises(DegenerateModelError):
        condition(np.zeros(2), ConditioningSpec(continuous={"level": 3.0}), bundle)


def test_update_report_is_self_consistent():
    rng = np.random.default_rng(48)
    bundle = binary_bundle(direction=(1.3, -0.4), intercept=0.2)
    for _ in range(20):
        z = rng.standard_normal(2)
        desired = "pos" if rng.random() < 0.5 else "neg"
        report = condition(z, ConditioningSpec({"flag": desired}), bundle)
        recomputed = latent_labels(bundle, report.z_prime)
        assert recomputed.discrete == report.labels_after.discrete
        assert recomputed.continuous == report.labels_after.continuous


def test_director_config_validation():
    with pytest.raises(ValueError):
        DirectorConfig(delta_margin=0.0)
    with pytest.raises(ValueError):
        DirectorConfig(sign_convention="sideways")
    with pytest.raises(ValueError, match="unknown continuous_calibration"):
        DirectorConfig(continuous_calibration="loose")


def test_unspecified_attributes_never_move():
    schema = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.binary("b", "n", "p"),
    )
    models = {
        "a": LatentModel("binary", [[1.0, 0.0]], [0.0], ("n", "p")),
        "b": LatentModel("binary", [[0.0, 1.0]], [0.0], ("n", "p")),
    }
    bundle = ModelBundle(schema, models)
    z = np.array([-1.0, -1.0])
    report = condition(z, ConditioningSpec({"a": "p"}), bundle, DirectorConfig(delta_margin=0.5))
    # attribute b (unspecified) keeps its coordinate untouched
    assert report.z_prime[1] == z[1]
    assert report.choose.as_dict() == {"a": 1, "b": 0}


FLOATS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def steering_batches(draw):
    """A random bundle of 1-4 attributes of any kind, a batch of latents, a spec per row, a mode."""
    dim = draw(st.integers(2, 5))
    schema, models = [], {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["binary", "multiclass", "continuous"]),
                                           min_size=1, max_size=4))):
        name = f"a{i}"
        if kind == "binary":
            schema.append(AttributeSchema.binary(name, "n", "p"))
            models[name] = LatentModel("binary", draw(arrays(np.float64, (1, dim), elements=FLOATS)),
                                       [draw(FLOATS)], ("n", "p"))
        elif kind == "multiclass":
            k = draw(st.integers(3, 4))
            classes = tuple(f"c{j}" for j in range(k))
            schema.append(AttributeSchema.multiclass(name, classes))
            models[name] = LatentModel("multiclass", draw(arrays(np.float64, (k, dim), elements=FLOATS)),
                                       draw(arrays(np.float64, k, elements=FLOATS)), classes)
        else:
            schema.append(AttributeSchema.continuous(name, -20.0, 20.0))
            models[name] = LatentModel("continuous", draw(arrays(np.float64, (1, dim), elements=FLOATS)),
                                       [draw(FLOATS)])
    bundle = ModelBundle(tuple(schema), models)
    n = draw(st.integers(1, 6))
    Z = draw(arrays(np.float64, (n, dim), elements=FLOATS))
    specs = []
    for _ in range(n):
        discrete, continuous = {}, {}
        for attr in schema:
            if attr.is_discrete:
                target = draw(st.none() | st.sampled_from(attr.classes))
                if target is not None:
                    discrete[attr.name] = target
            else:
                target = draw(st.none() | st.floats(attr.lo, attr.hi))
                if target is not None:
                    continuous[attr.name] = target
        specs.append(ConditioningSpec(discrete, continuous))
    cfg = DirectorConfig(sign_convention=draw(st.sampled_from(["corrected", "paper_literal"])),
                         continuous_calibration=draw(st.sampled_from(["calibrated", "paper_literal"])))
    return bundle, Z, specs, cfg


def _check_report(bundle, z, spec, report):
    """The report's choose bits, distances and deltas, recomputed from each LatentModel's rows.

    A binary distance is -(w.z + b)/|w|; a chosen multiclass attribute's is
    the same over the difference of the desired class's row and the row of
    the class latent_labels reads before the step. Each figure sums terms
    that may cancel, multiclass scores included, so it must agree within
    1e-12 of the summed magnitudes: rtol 1e-12 wherever nothing cancels.
    """
    before = latent_labels(bundle, z)
    bits, rows = {}, {}
    for attr in bundle.schema:
        if not attr.is_discrete:
            continue
        name, model = attr.name, bundle.models[attr.name]
        bits[name] = int(name in spec.discrete and spec.discrete[name] != before.discrete[name])
        if attr.kind == "binary":
            w, b = model.weights[0], model.intercepts[0]
            rows[name] = w, b, np.abs(w), abs(b)
        elif bits[name]:
            hi, lo = (model.classes.index(c) for c in (spec.discrete[name], before.discrete[name]))
            W, B = model.weights[[hi, lo]], model.intercepts[[hi, lo]]
            rows[name] = W[0] - W[1], B[0] - B[1], np.abs(W).sum(axis=0), np.abs(B).sum()
    assert report.choose.names == tuple(bits) and report.choose.as_dict() == bits
    assert list(report.distances_before) == list(rows) == list(report.distances_after)
    for name, (w, b, w_size, b_size) in rows.items():
        norm = math.hypot(*w)  # exact where w * w underflows
        for x, got in ((z, report.distances_before[name]), (report.z_prime, report.distances_after[name])):
            with np.errstate(over="ignore"):  # a distance beyond the float range rounds to +-inf
                expected = -(w @ x + b) / norm
            if np.isinf(expected):
                assert got == expected
            else:
                assert abs(got - expected) <= 1e-12 * (w_size @ np.abs(x) + b_size) / norm
    assert list(report.deltas) == list(spec.continuous)
    for name, target in spec.continuous.items():
        w, b = bundle.models[name].weights[0], bundle.models[name].intercepts[0]
        assert abs(report.deltas[name] - (target - (w @ z + b))) <= 1e-12 * (
            abs(target) + np.abs(w) @ np.abs(z) + abs(b))


@settings(max_examples=300, deadline=None)
@given(steering_batches())
# a tiny normal far from its boundary: the step is huge and must not overflow
@example((binary_bundle(direction=(1e-157, 0.0), intercept=1.0), np.zeros((1, 2)),
          [ConditioningSpec({"flag": "neg"})], DirectorConfig()))
# a subnormal normal: the distance 1/|w|, about 3.2e312, lies beyond the float range
@example((binary_bundle(direction=(2.225e-313, 2.225e-313), intercept=1.0), np.zeros((1, 2)),
          [ConditioningSpec()], DirectorConfig()))
def test_condition_batch_rows_equal_single_condition(case):
    bundle, Z, specs, cfg = case
    try:
        batch = condition_batch(Z, specs, bundle, cfg)
    except DegenerateModelError:
        # a degenerate model fails the batch only where it fails some row on its own
        with pytest.raises(DegenerateModelError):
            for z, spec in zip(Z, specs):
                condition(z, spec, bundle, cfg)
        return
    for i, (z, spec) in enumerate(zip(Z, specs)):
        single = condition(z, spec, bundle, cfg)
        np.testing.assert_allclose(batch.z_prime[i], single.z_prime, rtol=1e-12, atol=1e-12)
        assert latent_labels(bundle, z) == single.labels_before
        after = latent_labels(bundle, batch.z_prime[i])
        assert after == single.labels_after
        assert batch.satisfied[i] == (
            all(after.discrete[k] == v for k, v in spec.discrete.items())
            and all(abs(after.continuous[k] - v) <= 1e-9 for k, v in spec.continuous.items()))
        moves = {name: int(count[i]) for name, count in batch.multiclass_moves.items()
                 if batch.mismatch[name][i]}
        assert moves == single.multiclass_moves
        _check_report(bundle, z, spec, single)
        if not batch.moved[i]:
            assert batch.z_prime[i].tobytes() == z.tobytes()
            assert single.z_prime is single.z


def far_multiclass_step(weights):
    """A 3-class bundle with zero intercepts, z = 0 (class c0) and the target c1."""
    classes = ("c0", "c1", "c2")
    bundle = ModelBundle((AttributeSchema.multiclass("m", classes),),
                         {"m": LatentModel("multiclass", weights, np.zeros(3), classes)})
    return bundle, np.zeros((1, 2)), [ConditioningSpec({"m": "c1"})], DirectorConfig()


# steps that land far past the c0-c1 boundary, with margins whose distance fits a float
FAR_MULTICLASS_STEPS = [
    # the c1 - c0 score difference after the step (1.8e308) does not
    (far_multiclass_step([[4.0, 2.0], [-3.0, 0.0], [0.0, 0.0]]), 2.47e307),
    # each score after the step over the rows' norm (4.4e-16) does not
    (far_multiclass_step([[4.0, 2.0], [4.0, 2.0 + 4.4e-16], [0.0, 0.0]]), 1e300),
]


@settings(max_examples=200, deadline=None)
@given(steering_batches(), st.floats(0.5, 1e308))
# at the largest margin the first row's step overflows; the second row is already met
@example((binary_bundle(direction=(3.0, 0.0)), np.array([[-1.0, 0.0], [1.0, 0.0]]),
          [ConditioningSpec({"flag": "pos"})] * 2, DirectorConfig()), 1e308)
@example(*FAR_MULTICLASS_STEPS[0])
@example(*FAR_MULTICLASS_STEPS[1])
def test_a_step_of_any_margin_lands_or_raises(case, margin):
    """Each row's step lands, with z' and its scores finite, or raises DegenerateModelError,
    and the batch raises exactly when some row raises alone. A landed report's distance may
    still read inf, where it lies beyond the float range."""
    bundle, Z, specs, cfg = case
    cfg = replace(cfg, delta_margin=margin)
    landed = []
    for z, spec in zip(Z, specs):
        try:
            report = condition(z, spec, bundle, cfg)
        except DegenerateModelError:
            landed.append(False)
            continue
        landed.append(True)
        assert np.isfinite(report.z_prime).all()
        assert latent_labels(bundle, report.z_prime) == report.labels_after
        assert np.isfinite(list(report.labels_after.continuous.values())).all()
    if all(landed):
        condition_batch(Z, specs, bundle, cfg)
    else:
        with pytest.raises(DegenerateModelError):
            condition_batch(Z, specs, bundle, cfg)


@pytest.mark.parametrize("case, margin", FAR_MULTICLASS_STEPS,
                         ids=["score_difference", "score_over_norm"])
def test_a_landed_step_far_past_a_multiclass_boundary_reports_a_finite_distance(case, margin):
    bundle, Z, specs, cfg = case
    report = condition(Z[0], specs[0], bundle, replace(cfg, delta_margin=margin))
    assert report.labels_after.discrete == {"m": "c1"}
    assert -np.inf < report.distances_after["m"] < 0.0
