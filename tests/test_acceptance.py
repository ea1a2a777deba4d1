"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion plus the measured numbers.
"""

import time

import numpy as np

from latentsteer import (
    AttributeSchema,
    BinaryLatentClassifier,
    ConditioningSpec,
    DirectorConfig,
    EvalConfig,
    Hyperplane,
    LatentRegressor,
    ModelBundle,
    SweepConfig,
    TrainingConfig,
    WorldConfig,
    build_world,
    condition,
    cosine_report,
    cosine_similarity,
    eval_latent_modification,
    ground_truth_bundle,
    latent_labels,
    run_training,
    signed_distance,
    sweep_entanglement,
    unit_direction,
)
from latentsteer.cli import main
from latentsteer.models import logistic_loss_and_grad, softmax_loss_and_grad


def _report(number: int, detail: str) -> None:
    print(f"\n[criterion {number:02d}] PASS  {detail}", flush=True)


def single_binary_bundle(direction, intercept) -> ModelBundle:
    model = BinaryLatentClassifier(Hyperplane(direction, intercept), "pos", "neg")
    return ModelBundle((AttributeSchema.binary("flag", "neg", "pos"),), {"flag": model})


def test_criterion_01_projection_geometry():
    """1000 random (z, hyperplane) pairs per dim in {2, 64, 512}: z + s*unit lands on the plane."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for dim in (2, 64, 512):
        for _ in range(1000):
            z = rng.standard_normal(dim)
            d = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
            h = Hyperplane(d, float(rng.standard_normal()))
            z_proj = z + signed_distance(z, h) * unit_direction(h)
            tol = 1e-9 * np.linalg.norm(d) * (1.0 + np.linalg.norm(z))
            resid = abs(h.score(z_proj))
            worst = max(worst, resid / tol)
            assert resid <= tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"worst residual {worst:.3e} of tolerance; {elapsed:.2f}s")


def test_criterion_02_crossing_guarantee():
    """Corrected mode, single binary attribute: 10,000 flips all land delta past the plane."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    delta = 0.5
    cfg = DirectorConfig(delta_margin=delta)
    crossed = 0
    for _ in range(100):
        d = rng.standard_normal(64)
        bundle = single_binary_bundle(d, float(rng.standard_normal()))
        model = bundle.models["flag"]
        for _ in range(100):
            z = rng.standard_normal(64)
            desired = "neg" if model.predict(z) == "pos" else "pos"
            rep = condition(z, ConditioningSpec({"flag": desired}), bundle, cfg)
            assert rep.labels_after.discrete["flag"] == desired
            assert abs(abs(signed_distance(rep.z_prime, model.hyperplane)) - delta) <= 1e-9
            crossed += 1
    elapsed = time.perf_counter() - t0
    assert crossed == 10000
    assert elapsed < 5.0
    _report(2, f"10000/10000 crossings at |distance| = delta; {elapsed:.2f}s")


def test_criterion_03_paper_literal_never_flips():
    """Literal update on initially mismatched trials toward the positive side: flip rate 0%.

    The uncorrected update doubles the score and subtracts delta*|d|, so a
    negative score stays negative; from the positive side a thin band
    0 < score < delta*|d|/2 does cross by accident, which is measured and
    printed here as part of the demonstration, not asserted.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    cfg = DirectorConfig(delta_margin=0.5, sign_convention="paper_literal")
    flips = 0
    mismatched = 0
    band_crossings = 0
    band_trials = 0
    while mismatched < 10000:
        d = rng.standard_normal(64)
        bundle = single_binary_bundle(d, float(rng.standard_normal()))
        model = bundle.models["flag"]
        for _ in range(100):
            z = rng.standard_normal(64)
            if model.predict(z) == "neg":
                mismatched += 1
                rep = condition(z, ConditioningSpec({"flag": "pos"}), bundle, cfg)
                flips += rep.labels_after.discrete["flag"] == "pos"
            else:
                band_trials += 1
                rep = condition(z, ConditioningSpec({"flag": "neg"}), bundle, cfg)
                band_crossings += rep.labels_after.discrete["flag"] == "neg"
    elapsed = time.perf_counter() - t0
    assert flips == 0
    assert elapsed < 5.0
    _report(3, f"0/{mismatched} literal flips toward positive; accidental reverse-band "
               f"rate {band_crossings / max(band_trials, 1):.3f}; {elapsed:.2f}s")


def test_criterion_04_continuous_calibration():
    """Calibrated moves land the prediction exactly on target; literal error matches |delta|*(|d|-1)."""
    t0 = time.perf_counter()
    attrs = (AttributeSchema.continuous("level", -6.0, 6.0),)
    world = build_world(WorldConfig(dim=64, attributes=attrs, continuous_profile="linear", seed=1004))
    bundle = ground_truth_bundle(world)
    model = bundle.models["level"]
    rng = np.random.default_rng(1005)
    cal = DirectorConfig(continuous_calibration="calibrated")
    worst = 0.0
    for _ in range(10000):
        z = rng.standard_normal(64)
        target = float(rng.uniform(-4.8, 4.8))  # middle 80% of the range
        rep = condition(z, ConditioningSpec(continuous={"level": target}), bundle, cal)
        err = abs(model.predict(rep.z_prime) - target)
        worst = max(worst, err)
        assert err <= 1e-9
        # ground-truth readout agrees away from the clamp
        raw = float(world.direction_for("level") @ rep.z_prime)
        assert abs(raw - target) <= 1e-9

    # literal mode against a slope of norm 2: error magnitude |delta| * (|d| - 1)
    slope = np.zeros(64)
    slope[:2] = [1.2, 1.6]  # norm 2
    reg = LatentRegressor(Hyperplane(slope, 0.3))
    lit_bundle = ModelBundle((AttributeSchema.continuous("level", -100.0, 100.0),), {"level": reg})
    lit = DirectorConfig(continuous_calibration="paper_literal")
    for _ in range(2000):
        z = rng.standard_normal(64)
        current = reg.predict(z)
        target = current + float(rng.uniform(-3.0, 3.0))
        rep = condition(z, ConditioningSpec(continuous={"level": target}), lit_bundle, lit)
        err = abs(reg.predict(rep.z_prime) - target)
        predicted_err = abs(target - current) * (2.0 - 1.0)
        assert abs(err - predicted_err) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"worst calibrated error {worst:.2e}; literal error matches |delta|*(|d|-1); {elapsed:.2f}s")


def test_criterion_05_noop_and_idempotence():
    """Satisfied specs are bit-exact no-ops; a second conditioning changes nothing."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    attrs = (
        AttributeSchema.binary("a", "n", "p"),
        AttributeSchema.continuous("v", -6.0, 6.0),
    )
    world = build_world(WorldConfig(dim=32, attributes=attrs, continuous_profile="linear", seed=1007))
    bundle = ground_truth_bundle(world)
    cfg = DirectorConfig(delta_margin=0.5)
    for _ in range(1000):
        z = rng.standard_normal(32)
        labels = latent_labels(bundle, z)
        satisfied = ConditioningSpec(dict(labels.discrete), dict(labels.continuous))
        rep = condition(z, satisfied, bundle, cfg)
        assert rep.z_prime.tobytes() == rep.z.tobytes()

        desired = "p" if labels.discrete["a"] == "n" else "n"
        spec = ConditioningSpec({"a": desired})
        first = condition(z, spec, bundle, cfg)
        second = condition(first.z_prime, spec, bundle, cfg)
        assert second.z_prime.tobytes() == first.z_prime.tobytes()
        assert not second.choose.any_set
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"1000 no-op and idempotence trials bit-exact; {elapsed:.2f}s")


def test_criterion_06_hyperplane_recovery():
    """Noiseless orthogonal world, dim 64, N=10,000, 80/20: accuracy >= 0.99, cosine >= 0.98, RMSE <= 1e-3.

    The held-out metric is a 2000-sample estimate; the converged fits measure
    ~0.995 (binary) and ~0.992 (multiclass) against a 50k fresh sample, so
    the bar reflects true behavior rather than fold luck.
    """
    t0 = time.perf_counter()
    attrs = (
        AttributeSchema.binary("a", "neg", "pos"),
        AttributeSchema.multiclass("m", ("c0", "c1", "c2")),
        AttributeSchema.continuous("v", -6.0, 6.0),
    )
    world = build_world(WorldConfig(dim=64, attributes=attrs, continuous_profile="linear", seed=41))
    cfg = TrainingConfig(epochs=3000, l2_penalty=1e-6, seed=11)
    bundle = run_training(world, 10000, cfg)
    metrics = bundle.provenance.metrics

    assert metrics["a"] >= 0.99
    assert metrics["m"] >= 0.99
    assert metrics["v"] <= 1e-3

    cos_a = cosine_similarity(bundle.models["a"].hyperplane.direction, world.direction_for("a"))
    assert cos_a >= 0.98
    mc = bundle.models["m"]
    truths = {c: world.direction_for("m", c) for c in ("c0", "c1", "c2")}
    cos_m = []
    for c in ("c0", "c1", "c2"):
        true_ovr = truths[c] - np.mean([truths[o] for o in truths if o != c], axis=0)
        cos_m.append(cosine_similarity(mc.one_vs_rest_direction(c), true_ovr))
    assert min(cos_m) >= 0.98
    cos_v = cosine_similarity(bundle.models["v"].line.direction, world.direction_for("v"))
    assert cos_v >= 0.98
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"acc a={metrics['a']:.4f} m={metrics['m']:.4f} rmse v={metrics['v']:.2e}; "
               f"cosines a={cos_a:.4f} m>={min(cos_m):.4f} v={cos_v:.4f}; {elapsed:.1f}s")


def test_criterion_07_gradient_correctness():
    """Analytic logistic/softmax gradients match central differences within 1e-5 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)

    def rel(a, b):
        return np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(
            np.linalg.norm(a), np.linalg.norm(b), 1e-12
        )

    def fd(f, x, h=1e-6):
        x = np.asarray(x, dtype=np.float64)
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e.flat[i] = h
            g.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
        return g

    worst = 0.0
    for _ in range(10):
        n, d = int(rng.integers(5, 21)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        t = rng.integers(0, 2, size=n).astype(float)
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        l2 = float(rng.uniform(0, 0.1))
        _, gw, gb = logistic_loss_and_grad(w, b, X, t, l2)
        err = rel(gw, fd(lambda v: logistic_loss_and_grad(v, b, X, t, l2)[0], w))
        err_b = rel([gb], fd(lambda v: logistic_loss_and_grad(w, float(v[0]), X, t, l2)[0],
                             np.array([b])))
        worst = max(worst, err, err_b)
        assert err < 1e-5 and err_b < 1e-5
    for _ in range(10):
        n, d, k = int(rng.integers(5, 21)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        Y = np.zeros((n, k))
        Y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        W = rng.standard_normal((k, d))
        b = rng.standard_normal(k)
        l2 = float(rng.uniform(0, 0.1))
        _, gW, gb = softmax_loss_and_grad(W, b, X, Y, l2)
        err = rel(gW.ravel(), fd(lambda v: softmax_loss_and_grad(v.reshape(k, d), b, X, Y, l2)[0],
                                 W.ravel()))
        err_b = rel(gb, fd(lambda v: softmax_loss_and_grad(W, v, X, Y, l2)[0], b))
        worst = max(worst, err, err_b)
        assert err < 1e-5 and err_b < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, f"20 instances, worst relative gradient error {worst:.2e}; {elapsed:.2f}s")


def test_criterion_08_entangled_accuracy():
    """Two binary attributes at cosine 0.57, learned models, 10k single-step trials."""
    t0 = time.perf_counter()
    ent = np.array([[1.0, 0.57], [0.57, 1.0]])
    attrs = (
        AttributeSchema.binary("pose", "back", "front"),
        AttributeSchema.binary("style", "tee", "dress"),
    )
    world = build_world(WorldConfig(dim=64, attributes=attrs, entanglement=ent, seed=57))
    bundle = run_training(world, 10000, TrainingConfig(epochs=1000, seed=3))
    learned_cos = cosine_report(bundle).value("pose", "style")
    assert abs(learned_cos - 0.57) <= 0.1

    report = eval_latent_modification(bundle, world, 10000, EvalConfig(seed=99))
    assert report.accuracy["pose"] >= 0.80
    assert report.accuracy["style"] >= 0.80
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, f"accuracy pose={report.accuracy['pose']:.4f} style={report.accuracy['style']:.4f}; "
               f"learned cosine {learned_cos:.4f}; {elapsed:.1f}s")


def test_criterion_09_multiclass_conditioning():
    """3-class attribute, learned softmax, 10k trials: >= 95% reach the target within the redirect budget."""
    t0 = time.perf_counter()
    attrs = (AttributeSchema.multiclass("hair", ("black", "brown", "blond")),)
    world = build_world(WorldConfig(dim=64, attributes=attrs, seed=9))
    bundle = run_training(world, 10000, TrainingConfig(epochs=800, seed=5))
    cfg = DirectorConfig(multiclass_max_redirects=3)
    rng = np.random.default_rng(1009)
    hits = 0
    max_moves = 0
    for _ in range(10000):
        z = rng.standard_normal(64)
        desired = ("black", "brown", "blond")[int(rng.integers(3))]
        rep = condition(z, ConditioningSpec({"hair": desired}), bundle, cfg)
        hits += rep.labels_after.discrete["hair"] == desired
        moves = rep.multiclass_moves.get("hair", 0)
        assert moves <= 3
        max_moves = max(max_moves, moves)
    elapsed = time.perf_counter() - t0
    assert hits / 10000 >= 0.95
    assert elapsed < 60.0
    _report(9, f"desired class reached in {hits / 10000:.4f} of trials, max moves {max_moves}; {elapsed:.1f}s")


def test_criterion_10_entanglement_sweep(tmp_path):
    """Joint accuracy at cosine 0.0 beats cosine 0.99 by at least 0.05; CSV emitted."""
    t0 = time.perf_counter()
    cfg = SweepConfig(dim=32, seed=0, train=TrainingConfig(epochs=800, seed=1))
    result = sweep_entanglement([0.0, 0.99], trials=3000, n_samples=5000, cfg=cfg)
    assert not result.errors
    by_cos = {row.cosine: row.joint_accuracy for row in result.rows}
    assert by_cos[0.0] - by_cos[0.99] >= 0.05

    out = tmp_path / "sweep.csv"
    out.write_text(result.csv_text(), encoding="utf-8")
    lines = out.read_text().splitlines()
    assert lines[0] == "cosine,alpha_accuracy,beta_accuracy,joint_accuracy"
    assert len(lines) == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(10, f"joint accuracy {by_cos[0.0]:.4f} at cos 0.0 vs {by_cos[0.99]:.4f} at cos 0.99; "
                f"csv emitted; {elapsed:.1f}s")


def test_criterion_11_determinism_and_persistence(tmp_path):
    """Identical inputs give byte-identical bundles, worlds, and PGM dumps."""
    import json

    t0 = time.perf_counter()
    config = {
        "dim": 16,
        "seed": 11,
        "label_noise": 0.0,
        "continuous_profile": "sigmoid",
        "attributes": [
            {"name": "style", "kind": "binary", "classes": ["tee", "dress"]},
            {"name": "hair", "kind": "multiclass", "classes": ["black", "brown", "blond"]},
            {"name": "smile", "kind": "continuous", "range": [0.0, 1.0]},
        ],
        "entanglement": None,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(["world-init", "--config", str(cfg_path), "--out", str(w1)]) == 0
    assert main(["world-init", "--config", str(cfg_path), "--out", str(w2)]) == 0
    assert w1.read_bytes() == w2.read_bytes()

    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    train_args = ["--world", str(w1), "--n", "1000", "--epochs", "150", "--seed", "7"]
    assert main(["train", *train_args, "--out", str(b1)]) == 0
    assert main(["train", *train_args, "--out", str(b2)]) == 0
    assert b1.read_bytes() == b2.read_bytes()

    # save -> load -> save round trips byte-identically
    from latentsteer import load_bundle, load_world, save_bundle, save_world
    b3 = tmp_path / "b3.json"
    save_bundle(load_bundle(b1), b3)
    assert b3.read_bytes() == b1.read_bytes()
    w3 = tmp_path / "w3.json"
    save_world(load_world(w1), w3)
    assert w3.read_bytes() == w1.read_bytes()

    d1, d2 = tmp_path / "gen1", tmp_path / "gen2"
    gen_args = ["--bundle", str(b1), "--world", str(w1),
                "--cond", "style=dress,hair=blond,smile=0.8", "--seed", "21"]
    assert main(["generate", *gen_args, "--dump-image", str(d1)]) == 0
    assert main(["generate", *gen_args, "--dump-image", str(d2)]) == 0
    assert (d1 / "before.pgm").read_bytes() == (d2 / "before.pgm").read_bytes()
    assert (d1 / "after.pgm").read_bytes() == (d2 / "after.pgm").read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(11, f"bundles, worlds, and PGM dumps byte-identical across reruns; {elapsed:.1f}s")
