"""Training loop, evaluation harness, cosine reports, entanglement sweep."""

import functools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsteer import pipeline
from latentsteer import (
    AttributeSchema,
    ConditioningSpec,
    DirectorConfig,
    EvalConfig,
    SweepConfig,
    TrainingConfig,
    WorldConfig,
    build_world,
    condition,
    condition_batch,
    cosine_report,
    eval_end_to_end,
    eval_latent_modification,
    generate_image,
    ground_truth_bundle,
    latent_labels,
    oracle_label,
    run_training,
    signed_distance,
    sweep_entanglement,
    unit_direction,
)
from latentsteer import director, models
from latentsteer.errors import UnlearnableAttributeError, WorldConfigError
from latentsteer.geometry import sample_latents
from latentsteer.models import Folds, LatentModel, ModelBundle
from latentsteer.persist import bundle_to_payload, json_bytes
from latentsteer.pipeline import EvalReport
from latentsteer.world import _label_latents


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


def mixed_world(noise=0.1):
    """Continuous first, so schema order differs from the fits' cost order."""
    attrs = (AttributeSchema.continuous("level", -6.0, 6.0),
             AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
             AttributeSchema.binary("style", "tee", "dress"),
             AttributeSchema.binary("pose", "back", "front"))
    return build_world(WorldConfig(dim=16, attributes=attrs, label_noise=noise, seed=4))


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_run_training_saves_the_bytes_of_serial_fits_over_arrays(monkeypatch, cpus):
    """The concurrent fits over one shared split give the bundle that the fits called one
    after another on the latent array give, whatever the number of usable CPUs, and each fit
    gets the labels that one serial labelling of the sample gives, noise included, although
    the noise is drawn beside the latents."""
    world, cfg = mixed_world(), replace(FAST, seed=7)
    calls = []  # (fit, labels, keyword arguments) per fit run_training makes

    def recorded(fit):
        def call(latents, labels, cfg, **kwargs):
            assert isinstance(latents, Folds)
            calls.append((fit, latents, labels, kwargs))
            return fit(latents, labels, cfg, **kwargs)
        return call

    for name in ("fit_binary", "fit_multiclass", "fit_regressor"):
        monkeypatch.setattr(pipeline, name, recorded(getattr(models, name)))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_blas_threads", lambda: 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often while the fits share the folds
    try:
        bundle = run_training(world, 600, cfg)
    finally:
        sys.setswitchinterval(interval)

    assert len(calls) == 4 and len({id(folds) for _, folds, _, _ in calls}) == 1
    Z = sample_latents(600, world.latent_dim, cfg.seed)
    # each call's attribute, told by the class argument run_training passes
    attribute = {None: "level", ("black", "brown", "blond"): "hair", "dress": "style",
                 "front": "pose"}
    serial = {attribute[kwargs.get("positive_class", kwargs.get("class_names"))]:
              fit(Z, labels, cfg, **kwargs) for fit, _, labels, kwargs in calls}
    expected = ModelBundle(bundle.schema, serial, bundle.provenance)
    assert json_bytes(bundle_to_payload(bundle)) == json_bytes(bundle_to_payload(expected))

    noise_seeds = np.random.default_rng((cfg.seed, 1)).integers(2**62, size=600)
    read = _label_latents(world, Z, noise_seeds)
    clean = _label_latents(world, Z, noise_seeds, label_noise=0.0)
    schema = {a.name: a for a in world.config.attributes}
    for _, _, labels, kwargs in calls:
        attr = schema[attribute[kwargs.get("positive_class", kwargs.get("class_names"))]]
        column = read[attr.name]
        want = np.take(attr.classes, column) if attr.is_discrete else column
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()
        if attr.is_discrete:  # the noise is in them
            assert (column != clean[attr.name]).any()


def test_run_training_raises_the_first_failure_in_schema_order_once_every_fit_ends(monkeypatch):
    finished = []

    def fails(latents, labels, cfg, **kwargs):
        raise UnlearnableAttributeError("no luck")

    def multiclass(*args, **kwargs):
        model = models.fit_multiclass(*args, **kwargs)
        finished.append("hair")
        return model

    monkeypatch.setattr(pipeline, "fit_binary", fails)
    monkeypatch.setattr(pipeline, "fit_regressor", fails)
    monkeypatch.setattr(pipeline, "fit_multiclass", multiclass)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(pipeline, "_blas_threads", lambda: 1)
    threads = threading.active_count()
    with pytest.raises(UnlearnableAttributeError, match="^attribute 'level': no luck$"):
        run_training(mixed_world(), 300, FAST)
    assert finished == ["hair"]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus, blas, workers", [(1, 1, 0), (2, 1, 1), (8, 1, 3), (8, 2, 3),
                                                 (8, 4, 1), (2, 2, 0), (2, 4, 0), (8, None, 0)])
def test_run_training_pools_only_the_cores_the_blas_leaves_free(monkeypatch, cpus, blas,
                                                                   workers):
    """Each fit's BLAS threads keep a core each; an unreadable BLAS thread count fits serially."""
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_blas_threads", lambda: blas)
    run_training(mixed_world(), 300, FAST)  # four attributes: three beside the calling thread's
    assert pools == ([workers] if workers else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_the_blas_thread_count_is_read_from_the_library_numpy_loaded(threads):
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not built against OpenBLAS")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, "-c", "from latentsteer import pipeline; "
                           "print(pipeline._blas_threads())"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == str(threads)


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


def _block_trials(schema, dim, seed, block):
    """Eval block `block` as (latent, spec) pairs, drawn as `_draw_trials` documents.

    default_rng((seed, block)) draws a full block of latents, then per
    attribute a full block of uniform classes, or of values uniform over the
    middle 80% of the range.
    """
    rng = np.random.default_rng((seed, block))
    Z = rng.standard_normal((pipeline.ROW_BLOCK, dim))
    columns = {}
    for attr in schema:
        if attr.is_discrete:
            columns[attr.name] = [attr.classes[i]
                                  for i in rng.integers(len(attr.classes), size=pipeline.ROW_BLOCK)]
        else:
            pad = 0.1 * (attr.hi - attr.lo)
            columns[attr.name] = rng.uniform(attr.lo + pad, attr.hi - pad,
                                             size=pipeline.ROW_BLOCK).tolist()
    return [(Z[i], ConditioningSpec({a.name: columns[a.name][i] for a in schema if a.is_discrete},
                                    {a.name: columns[a.name][i] for a in schema if not a.is_discrete}))
            for i in range(pipeline.ROW_BLOCK)]


def _reference_eval(bundle, world, trials, cfg, mode):
    """The eval one trial at a time: its block's draw, `condition` per round, one judge call."""
    hits = {a.name: 0 for a in bundle.schema if a.is_discrete}
    sq_err = {a.name: 0.0 for a in bundle.schema if not a.is_discrete}
    joint_hits = 0
    for t in range(trials):
        if t % pipeline.ROW_BLOCK == 0:
            block = _block_trials(bundle.schema, bundle.latent_dim, cfg.seed, t // pipeline.ROW_BLOCK)
        z, spec = block[t % pipeline.ROW_BLOCK]
        for _ in range(cfg.rounds):
            report = condition(z, spec, bundle, cfg.director)
            z, after = report.z_prime, report.labels_after
            if (all(after.discrete[k] == v for k, v in spec.discrete.items())
                    and all(abs(after.continuous[k] - v) <= 1e-9 for k, v in spec.continuous.items())):
                break
        outcome = (latent_labels(bundle, z) if mode == "latent"
                   else oracle_label(world, generate_image(world, z), 0, label_noise=0.0))
        ok = [outcome.discrete[k] == v for k, v in spec.discrete.items()]
        for (k, _), hit in zip(spec.discrete.items(), ok):
            hits[k] += hit
        for k, v in spec.continuous.items():
            d = outcome.continuous[k] - v
            sq_err[k] += d * d
        joint_hits += all(ok)
    return EvalReport(mode, trials, cfg.seed, {k: h / trials for k, h in hits.items()},
                      {k: float(np.sqrt(s / trials)) for k, s in sq_err.items()},
                      joint_hits / trials if hits else None)


SCHEMAS = {
    "discrete": (AttributeSchema.binary("style", "tee", "dress"),
                 AttributeSchema.multiclass("hair", ("black", "brown", "blond"))),
    "continuous": (AttributeSchema.continuous("level", -2.0, 3.0),
                   AttributeSchema.continuous("tone", 0.0, 1.0)),
    "mixed": (AttributeSchema.binary("style", "tee", "dress"),
              AttributeSchema.continuous("level", -2.0, 3.0),
              AttributeSchema.multiclass("hair", ("black", "brown", "blond"))),
}


@functools.cache
def _entangled_case(kind):
    """An entangled world and a bundle that misreads it a little, its classes in another order."""
    attrs = SCHEMAS[kind]
    slots = sum(len(a.classes) if a.kind == "multiclass" else 1 for a in attrs)
    ent = 0.4 * np.eye(slots) + 0.6
    world = build_world(WorldConfig(dim=8, attributes=attrs, entanglement=ent, seed=21))
    truth = ground_truth_bundle(world)
    rng = np.random.default_rng(22)
    models = {}
    for attr in attrs:
        m = truth.models[attr.name]
        order = rng.permutation(len(m.weights)) if attr.kind == "multiclass" else slice(None)
        models[attr.name] = LatentModel(
            m.kind, m.weights[order] + 0.1 * rng.standard_normal(m.weights.shape),
            m.intercepts[order] + 0.1 * rng.standard_normal(len(m.intercepts)),
            tuple(np.array(m.classes)[order]) if attr.kind == "multiclass" else m.classes)
    return world, ModelBundle(attrs, models)


@pytest.mark.parametrize("kind", list(SCHEMAS))
@settings(max_examples=15, deadline=None)
@given(trials=st.sampled_from([1, 255, 256, 257]), rounds=st.integers(1, 3),
       sign=st.sampled_from(["corrected", "paper_literal"]),
       calibration=st.sampled_from(["calibrated", "paper_literal"]), seed=st.integers(0, 2**32))
def test_batched_evals_equal_the_per_trial_loop(kind, trials, rounds, sign, calibration, seed):
    world, bundle = _entangled_case(kind)
    cfg = EvalConfig(seed=seed, rounds=rounds,
                     director=DirectorConfig(sign_convention=sign, continuous_calibration=calibration))
    for mode, evaluate in (("latent", eval_latent_modification), ("end2end", eval_end_to_end)):
        report = evaluate(bundle, world, trials, cfg)
        expected = _reference_eval(bundle, world, trials, cfg, mode)
        assert repr(report) == repr(expected)
        assert report.csv_text() == expected.csv_text()
    assert (report.rmse == {}) == (kind == "discrete")
    assert (report.joint_discrete_accuracy is None) == (kind == "continuous")


@pytest.mark.parametrize("kind", list(SCHEMAS))
def test_a_bundle_stacks_its_models_rows_in_schema_order(kind):
    _, bundle = _entangled_case(kind)
    start = 0
    for attr, (name, block_kind, rows, classes) in zip(bundle.schema, bundle.blocks, strict=True):
        model = bundle.models[attr.name]
        assert (name, block_kind, classes) == (attr.name, attr.kind, model.classes)
        if attr.kind == "multiclass":  # the model's own class order, which _entangled_case permutes
            assert classes != attr.classes
        assert rows == slice(start, start + len(model.weights))
        assert bundle.weights[rows].tobytes() == model.weights.tobytes()
        assert bundle.intercepts[rows].tobytes() == model.intercepts.tobytes()
        start = rows.stop
    assert bundle.weights.shape == bundle.units.shape == (start, bundle.latent_dim)
    assert bundle.intercepts.shape == bundle.norms.shape == (start,)
    np.testing.assert_allclose(bundle.norms, np.linalg.norm(bundle.weights, axis=1), rtol=1e-14)
    np.testing.assert_allclose(bundle.units * bundle.norms[:, None], bundle.weights, rtol=1e-14)
    for a in (bundle.weights, bundle.intercepts, bundle.norms, bundle.units):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@functools.cache
def _bench_case():
    """The benchmark's world (acceptance criterion 08's seed 57) and its N=2,000 bundle."""
    attrs = (AttributeSchema.binary("style", "tee", "dress"),
             AttributeSchema.binary("pose", "back", "front"),
             AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
             AttributeSchema.continuous("smile", 0.0, 1.0))
    ent = np.eye(6)
    ent[0, 1] = ent[1, 0] = 0.57
    world = build_world(WorldConfig(dim=64, attributes=attrs, entanglement=ent, label_noise=0.02,
                                    continuous_profile="sigmoid", seed=57))
    return world, run_training(world, 2000, TrainingConfig(epochs=1000, seed=3))


@pytest.mark.parametrize("seed", range(6))
def test_a_bundles_norms_read_the_same_bits_at_every_site(seed):
    # each one-row model's unit and norm read as the bundle's row; each multiclass pair's norm
    # that condition reports its distance with is the one _redirect's pair table steps with
    world, _ = _bench_case()
    bundle = run_training(world, 2000, TrainingConfig(epochs=1000, seed=seed))
    Z = np.random.default_rng(seed).standard_normal((40, world.latent_dim))
    for name, kind, rows, classes in bundle.blocks:
        if kind != "multiclass":
            r, h = rows.start, bundle.models[name].hyperplane
            assert unit_direction(h).tobytes() == bundle.units[r].tobytes()
            for z in Z:
                assert signed_distance(z, h) == -h.score(z) / bundle.norms[r]
            continue
        k, norms = len(classes), director._pair_table(bundle.weights[rows])[2]
        pairs = set()
        for z in Z:
            S = director._scores(bundle, z[None])[0, rows]
            now = int(np.argmax(S))
            for want in set(range(k)) - {now}:
                report = condition(z, ConditioningSpec({name: classes[want]}), bundle)
                assert report.distances_before[name] == -(S[want] - S[now]) / norms[want * k + now]
                pairs.add((want, now))
        assert len(pairs) == k * (k - 1)


def _scaled_bundle(bundle, k):
    """bundle with every binary and multiclass row and intercept times 2**k."""
    return ModelBundle(bundle.schema, {
        name: m if m.kind == "continuous"
        else replace(m, weights=np.ldexp(m.weights, k), intercepts=np.ldexp(m.intercepts, k))
        for name, m in bundle.models.items()})


@pytest.mark.parametrize("k", [-900, 900])
def test_a_bundle_scaled_by_a_power_of_two_steers_as_the_unscaled_one(k):
    # unscaled, the squares in the row norms overflow (k = 900) or underflow to zero (k = -900)
    world, bundle = _bench_case()
    scaled = _scaled_bundle(bundle, k)
    rng = np.random.default_rng(31)
    Z = rng.standard_normal((200, world.latent_dim))
    specs = [ConditioningSpec({a.name: a.classes[rng.integers(len(a.classes))]
                               for a in bundle.schema if a.is_discrete},
                              {"smile": rng.uniform(0.1, 0.9)}) for _ in Z]
    assert (condition_batch(Z, specs, scaled).z_prime.tobytes()
            == condition_batch(Z, specs, bundle).z_prime.tobytes())
    for z, spec in zip(Z[:20], specs):
        got, expected = condition(z, spec, scaled), condition(z, spec, bundle)
        assert got.distances_before == expected.distances_before
        assert got.distances_after == expected.distances_after
    for rounds in (1, 3):
        cfg = EvalConfig(seed=1, rounds=rounds)
        for evaluate in (eval_latent_modification, eval_end_to_end):
            assert repr(evaluate(scaled, world, 1000, cfg)) == repr(evaluate(bundle, world, 1000, cfg))


def _drawn_trials(bundle, world, trials, seed):
    """Every trial's latent and compiled targets as the latent eval steers them."""
    drawn, steer = [], pipeline._steer

    def spy(Z, targets, m, cfg):
        drawn.append(np.column_stack([Z, *targets]))
        return steer(Z, targets, m, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_steer", spy)
        eval_latent_modification(bundle, world, trials, EvalConfig(seed=seed))
    return np.concatenate(drawn)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(list(SCHEMAS)), n=st.integers(1, 300),
       seed=st.one_of(st.sampled_from([0, 2**32, 2**64 + 1]), st.integers(0, 2**64)))
def test_a_trial_draws_the_same_whatever_the_trial_count(kind, n, seed):
    world, bundle = _entangled_case(kind)
    drawn = _drawn_trials(bundle, world, n, seed)
    assert drawn.shape[0] == n
    assert drawn.tobytes() == _drawn_trials(bundle, world, 300, seed)[:n].tobytes()


def test_a_negative_eval_seed_raises_as_seed_sequence_does():
    world = orthogonal_world(seed=7)
    bundle = ground_truth_bundle(world)
    for evaluate in (eval_latent_modification, eval_end_to_end):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            evaluate(bundle, world, 10, EvalConfig(seed=-1))


def test_end_to_end_eval_rejects_a_world_that_does_not_show_the_bundle_attributes():
    world = orthogonal_world(seed=7)
    bundle = ground_truth_bundle(world)
    other = build_world(WorldConfig(dim=32, seed=7, attributes=(
        AttributeSchema.binary("style", "tee", "dress"),
        AttributeSchema.binary("level", "low", "high"),
        AttributeSchema.binary("pose", "back", "front"))))
    for shown in (other, build_world(replace(other.config, attributes=other.config.attributes[:1]))):
        with pytest.raises(WorldConfigError, match="'level'|'pose'"):
            eval_end_to_end(bundle, shown, 10)
    assert eval_latent_modification(bundle, other, 10).accuracy == {"style": 1.0, "pose": 1.0}


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: EvalConfig(rounds=0), ValueError, "rounds must be at least 1"),
    (lambda: eval_latent_modification(ground_truth_bundle(orthogonal_world(dim=16)),
                                      orthogonal_world(), 10),
     WorldConfigError, "bundle latent dim 16 does not match world dim 32"),
    (lambda: pipeline.CosineReport(("a", "b"), np.eye(3)), ValueError,
     "matrix shape does not match the name list"),
    (lambda: cosine_report(ModelBundle((), {})), ValueError,
     "cosine report needs a non-empty bundle"),
], ids=["rounds", "dims", "cosine shape", "empty bundle"])
def test_eval_and_cosine_report_reject_inputs_they_cannot_read(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    # a run that raises is collected, not only a cosine outside (-1, 1)
    result = sweep_entanglement([0.0], trials=200, n_samples=50, cfg=cfg)
    assert result.rows == () and result.errors == ((0.0, "n_samples must be at least 100, got 50"),)


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
