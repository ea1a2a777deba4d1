"""Training loop, evaluation harness, cosine reports, entanglement sweep."""

import numpy as np
import pytest

from latentsteer import (
    AttributeSchema,
    DirectorConfig,
    EvalConfig,
    SweepConfig,
    TrainingConfig,
    WorldConfig,
    build_world,
    cosine_report,
    eval_end_to_end,
    eval_latent_modification,
    ground_truth_bundle,
    run_training,
    sweep_entanglement,
)
from latentsteer.pipeline import EvalReport


def orthogonal_world(dim=32, seed=5, label_noise=0.0, profile="linear"):
    attrs = (
        AttributeSchema.binary("style", "tee", "dress"),
        AttributeSchema.binary("pose", "back", "front"),
        AttributeSchema.continuous("level", -6.0, 6.0),
    )
    return build_world(WorldConfig(dim=dim, attributes=attrs, label_noise=label_noise,
                                   continuous_profile=profile, seed=seed))


FAST = TrainingConfig(epochs=300, seed=2)


def test_run_training_requires_min_samples():
    with pytest.raises(ValueError):
        run_training(orthogonal_world(), 99)


def test_run_training_metrics_and_determinism():
    world = orthogonal_world()
    a = run_training(world, 2000, FAST)
    b = run_training(world, 2000, FAST)
    assert a.provenance.metrics == b.provenance.metrics
    for name in ("style", "pose"):
        np.testing.assert_array_equal(
            a.models[name].hyperplane.direction, b.models[name].hyperplane.direction
        )
        assert a.models[name].hyperplane.intercept == b.models[name].hyperplane.intercept
        assert a.provenance.metrics[name] >= 0.97
    assert a.provenance.metrics["level"] <= 1e-3
    assert a.provenance.n_samples == 2000
    assert a.provenance.world_seed == world.config.seed


def test_run_training_noiseless_binary_accuracy_bar():
    # converged fits on a noiseless linear world should be near-perfect
    world = orthogonal_world(dim=64, seed=8)
    bundle = run_training(world, 10000, TrainingConfig(epochs=1000, seed=3))
    assert bundle.provenance.metrics["style"] >= 0.99
    assert bundle.provenance.metrics["pose"] >= 0.99


def test_ground_truth_bundle_reproduces_world_decisions():
    world = orthogonal_world(seed=6)
    bundle = ground_truth_bundle(world)
    from latentsteer import generate_image, oracle_label, latent_labels, sample_latents
    # z = 0 lies exactly on both binary boundaries, whose intercepts are 0
    for z in [np.zeros(32), *sample_latents(100, 32, seed=4)]:
        truth = oracle_label(world, generate_image(world, z), 0)
        predicted = latent_labels(bundle, z)
        assert predicted.discrete == truth.discrete
        for name, v in truth.continuous.items():
            assert predicted.continuous[name] == pytest.approx(v, abs=1e-9)


def test_eval_latent_modification_perfect_with_injected_truth():
    world = orthogonal_world(seed=7)
    bundle = ground_truth_bundle(world)
    report = eval_latent_modification(bundle, world, 500, EvalConfig(seed=11))
    assert report.accuracy == {"style": 1.0, "pose": 1.0}
    assert report.rmse["level"] <= 1e-9
    assert report.joint_discrete_accuracy == 1.0
    assert report.trials == 500


def test_eval_reports_are_deterministic():
    world = orthogonal_world(seed=7)
    bundle = ground_truth_bundle(world)
    a = eval_latent_modification(bundle, world, 200, EvalConfig(seed=13))
    b = eval_latent_modification(bundle, world, 200, EvalConfig(seed=13))
    assert a == b


def test_eval_paper_literal_accuracy_near_chance():
    # the uncorrected update only succeeds when the target already holds,
    # plus a thin accidental-crossing band on the positive side; the measured
    # rate sits near 0.55 for delta=0.5, far from the corrected mode's 1.0
    attrs = (AttributeSchema.binary("flag", "neg", "pos"),)
    world = build_world(WorldConfig(dim=16, attributes=attrs, seed=3))
    bundle = ground_truth_bundle(world)
    literal = eval_latent_modification(
        bundle, world, 4000,
        EvalConfig(seed=17, director=DirectorConfig(sign_convention="paper_literal")),
    )
    corrected = eval_latent_modification(bundle, world, 4000, EvalConfig(seed=17))
    assert corrected.accuracy["flag"] == 1.0
    assert 0.45 <= literal.accuracy["flag"] <= 0.65
    assert literal.accuracy["flag"] < corrected.accuracy["flag"]


def test_eval_end_to_end_learned_models_noiseless():
    world = orthogonal_world(dim=32, seed=9)
    bundle = run_training(world, 4000, TrainingConfig(epochs=500, seed=4))
    report = eval_end_to_end(bundle, world, 1000, EvalConfig(seed=19))
    assert report.mode == "end2end"
    for name in ("style", "pose"):
        assert report.accuracy[name] >= 0.95
    assert report.rmse["level"] < 0.5


def test_eval_end_to_end_with_training_label_noise():
    # symmetric label noise at train time, judged noiselessly
    world = orthogonal_world(dim=32, seed=10, label_noise=0.1)
    bundle = run_training(world, 10000, TrainingConfig(epochs=500, seed=5))
    report = eval_end_to_end(bundle, world, 1000, EvalConfig(seed=23))
    for name in ("style", "pose"):
        assert report.accuracy[name] >= 0.85


def test_repair_rounds_raise_entangled_accuracy():
    # at cosine 0.6 the re-run loop converges (measured 0.763 -> 1.0); at
    # much higher cosines anti-aligned targets can oscillate, so the repair
    # flag is an improvement, not a guarantee
    ent = np.array([[1.0, 0.6], [0.6, 1.0]])
    attrs = (AttributeSchema.binary("a", "n", "p"), AttributeSchema.binary("b", "n", "p"))
    world = build_world(WorldConfig(dim=16, attributes=attrs, entanglement=ent, seed=12))
    bundle = ground_truth_bundle(world)
    single = eval_latent_modification(bundle, world, 1000, EvalConfig(seed=29))
    repaired = eval_latent_modification(bundle, world, 1000, EvalConfig(seed=29, rounds=5))
    assert repaired.joint_discrete_accuracy >= single.joint_discrete_accuracy + 0.05
    assert repaired.joint_discrete_accuracy >= 0.99


def test_eval_rejects_zero_trials():
    world = orthogonal_world()
    bundle = ground_truth_bundle(world)
    with pytest.raises(ValueError):
        eval_latent_modification(bundle, world, 0)


def test_cosine_report_identity_world():
    world = orthogonal_world(dim=64, seed=14)
    bundle = run_training(world, 10000, TrainingConfig(epochs=500, seed=6))
    report = cosine_report(bundle)
    assert report.names == ("style", "pose", "level")
    off = report.matrix - np.eye(3)
    assert np.abs(off).max() <= 0.1
    np.testing.assert_array_equal(report.matrix, report.matrix.T)
    np.testing.assert_array_equal(np.diag(report.matrix), np.ones(3))


def test_cosine_report_recovers_configured_entanglement():
    ent = np.array([[1.0, 0.57], [0.57, 1.0]])
    attrs = (AttributeSchema.binary("pose", "b", "f"), AttributeSchema.binary("style", "t", "d"))
    world = build_world(WorldConfig(dim=64, attributes=attrs, entanglement=ent, seed=15))
    bundle = run_training(world, 10000, TrainingConfig(epochs=500, seed=7))
    report = cosine_report(bundle)
    assert abs(report.value("pose", "style") - 0.57) <= 0.1


def test_cosine_report_single_attribute():
    attrs = (AttributeSchema.binary("only", "n", "p"),)
    world = build_world(WorldConfig(dim=8, attributes=attrs, seed=16))
    report = cosine_report(ground_truth_bundle(world))
    assert report.names == ("only",)
    np.testing.assert_array_equal(report.matrix, [[1.0]])


def test_cosine_report_multiclass_one_vs_rest_rows():
    attrs = (
        AttributeSchema.binary("g", "f", "m"),
        AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
    )
    world = build_world(WorldConfig(dim=16, attributes=attrs, seed=17))
    report = cosine_report(ground_truth_bundle(world))
    assert report.names == ("g", "hair:black", "hair:brown", "hair:blond")
    # one-vs-rest rows of mutually orthogonal class directions are anti-correlated
    assert report.value("hair:black", "hair:brown") < 0.0


def test_sweep_orthogonal_point_has_high_joint_accuracy():
    cfg = SweepConfig(dim=16, seed=1, train=TrainingConfig(epochs=300, seed=1))
    result = sweep_entanglement([0.0], trials=500, n_samples=1500, cfg=cfg)
    assert len(result.rows) == 1 and not result.errors
    assert result.rows[0].joint_accuracy >= 0.95


def test_sweep_collects_invalid_cosines():
    cfg = SweepConfig(dim=16, seed=1, train=TrainingConfig(epochs=200, seed=1))
    result = sweep_entanglement([0.0, 1.2], trials=200, n_samples=800, cfg=cfg)
    assert len(result.rows) == 1
    assert len(result.errors) == 1 and result.errors[0][0] == 1.2


def test_sweep_empty_values_gives_header_only_csv():
    result = sweep_entanglement([], trials=10, n_samples=500, cfg=SweepConfig())
    text = result.csv_text()
    assert text.splitlines() == ["cosine,alpha_accuracy,beta_accuracy,joint_accuracy"]


def test_csv_rendering_round_trips_floats():
    report = EvalReport("latent", 10, 3, {"a": 0.875}, {"v": 0.0625}, 0.75)
    lines = report.csv_text().splitlines()
    assert lines[0] == "attribute,metric,value,trials,seed,mode"
    assert "0.875" in lines[1]
    rendered = report.render()
    assert "accuracy" in rendered and "rmse" in rendered
