"""File formats and the command-line surface."""

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentsteer import (
    AttributeSchema,
    BundleProvenance,
    FormatError,
    LatentModel,
    ModelBundle,
    SyntheticImage,
    TrainingConfig,
    TrainingMeta,
    WorldConfig,
    build_world,
    generate_image,
    ground_truth_bundle,
    load_bundle,
    load_world,
    oracle_label,
    run_training,
    sample_latents,
    save_bundle,
    save_world,
)
from latentsteer.cli import main, parse_conditioning
from latentsteer.persist import (json_bytes, bundle_to_payload, payload_to_bundle, pgm_text,
                                 world_to_payload)


def small_world(seed=3):
    attrs = (
        AttributeSchema.binary("style", "tee", "dress"),
        AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
        AttributeSchema.continuous("smile", 0.0, 1.0),
    )
    return build_world(WorldConfig(dim=12, attributes=attrs,
                                   continuous_profile="sigmoid", seed=seed))


def test_bundle_save_load_save_round_trips_bytes(tmp_path):
    world = small_world()
    bundle = run_training(world, 400, TrainingConfig(epochs=50, seed=1))
    p1 = tmp_path / "bundle.json"
    p2 = tmp_path / "bundle2.json"
    save_bundle(bundle, p1)
    save_bundle(load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundle_payload_carries_provenance_and_meta():
    world = small_world()
    bundle = run_training(world, 400, TrainingConfig(epochs=50, seed=1))
    payload = bundle_to_payload(bundle)
    assert payload["format_version"] == 1
    assert payload["latent_dim"] == 12
    assert payload["provenance"]["n_samples"] == 400
    assert set(payload["provenance"]["training_config"]) == {
        "epochs", "l2_penalty", "split_fraction", "seed"}
    assert payload["models"]["style"]["training_meta"]["grad_norm"] <= 1e-8
    assert payload["models"]["smile"]["training_meta"]["grad_norm"] is None
    assert set(payload["models"]) == {"style", "hair", "smile"}


def test_world_save_load_preserves_generation_behavior(tmp_path):
    world = small_world()
    path = tmp_path / "world.json"
    save_world(world, path)
    loaded = load_world(path)
    np.testing.assert_array_equal(world.directions, loaded.directions)
    np.testing.assert_array_equal(world.intercepts, loaded.intercepts)
    for z in sample_latents(20, 12, seed=5):
        a = generate_image(world, z)
        b = generate_image(loaded, z)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        la = oracle_label(world, a, 3)
        lb = oracle_label(loaded, b, 3)
        assert la.discrete == lb.discrete and la.continuous == lb.continuous


def test_world_file_round_trips_bytes(tmp_path):
    world = small_world()
    p1 = tmp_path / "w1.json"
    p2 = tmp_path / "w2.json"
    save_world(world, p1)
    save_world(load_world(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_format_version_checked(tmp_path):
    world = small_world()
    payload = world_to_payload(world)
    payload["format_version"] = 99
    path = tmp_path / "bad.json"
    path.write_bytes(json_bytes(payload))
    with pytest.raises(FormatError):
        load_world(path)


def test_missing_file_and_invalid_json(tmp_path):
    with pytest.raises(FormatError):
        load_world(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_bundle(bad)


LOADERS = {"bundle": (load_bundle, bundle_to_payload), "world": (load_world, world_to_payload)}


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_the_same_bytes_at_the_same_path_load_the_same_object(tmp_path, which):
    load, _ = LOADERS[which]
    path = tmp_path / f"{which}.json"
    path.write_bytes(_trained_files()[which])
    first = load(path)
    assert load(path) is first and load(str(path)) is first
    if which == "bundle":  # a reload reads the stacked map built when the file was parsed
        again = load(path)
        assert all(getattr(again, a) is getattr(first, a)
                   for a in ("weights", "intercepts", "norms", "units", "blocks"))


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_new_bytes_at_the_same_path_load_the_new_content(tmp_path, which):
    load, to_payload = LOADERS[which]
    path = tmp_path / f"{which}.json"
    path.write_bytes(_trained_files()[which])
    first = load(path)
    payload = trained_payloads()[which]
    entry = payload["models"]["style"] if which == "bundle" else payload["directions"][0]
    entry["intercept"] += 0.25
    path.write_bytes(json_bytes(payload))
    second = load(path)
    assert second is not first and json_bytes(to_payload(second)) == json_bytes(payload)
    path.write_bytes(_trained_files()[which])
    assert load(path) is first


@pytest.mark.parametrize("which", sorted(LOADERS))
@pytest.mark.parametrize("bad, message", [
    (b"{not json", "invalid JSON at line 1: Expecting property name enclosed in double quotes"),
    (b'{"format_version": 99}', "format_version 99 unsupported (expected 1)"),
])
def test_a_malformed_file_over_a_loaded_one_exits_2_every_time(tmp_path, which, bad, message):
    files = _trained_files()
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_bytes(data)
    assert _write_and_eval(tmp_path, {}) == (0, "")
    (tmp_path / f"{which}.json").write_bytes(bad)
    for _ in range(2):
        assert _write_and_eval(tmp_path, {}) == (2, f"error: {tmp_path / which}.json: {message}\n")
    (tmp_path / f"{which}.json").write_bytes(files[which])
    assert _write_and_eval(tmp_path, {}) == (0, "")


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_a_missing_file_raises_file_not_found_after_a_load(tmp_path, which):
    load, _ = LOADERS[which]
    path = tmp_path / f"{which}.json"
    path.write_bytes(_trained_files()[which])
    load(path)
    path.unlink()
    with pytest.raises(FormatError, match=f"^file not found: {re.escape(str(path))}$"):
        load(path)


@pytest.mark.parametrize("which", sorted(LOADERS))
def test_the_same_bytes_under_two_paths_are_two_entries(tmp_path, which):
    load, to_payload = LOADERS[which]
    paths = [tmp_path / f"a-{which}.json", tmp_path / f"b-{which}.json"]
    for path in paths:
        path.write_bytes(_trained_files()[which])
    a, b = (load(path) for path in paths)
    assert a is not b and json_bytes(to_payload(a)) == json_bytes(to_payload(b))
    payload = trained_payloads()[which]
    payload["format_version"] = 2
    for path in paths:
        path.write_bytes(json_bytes(payload))
    for path in paths:
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: format_version 2 "):
            load(path)


def test_bundle_mappings_are_read_only_copies():
    world = small_world()
    bundle = run_training(world, 400, TrainingConfig(epochs=50, seed=1))
    models, metrics = dict(bundle.models), dict(bundle.provenance.metrics)
    copy = ModelBundle(bundle.schema, models, BundleProvenance(1, 400, TrainingConfig(), metrics))
    models.clear()
    metrics["style"] = -1.0
    assert set(copy.models) == {"style", "hair", "smile"}
    assert copy.provenance.metrics == bundle.provenance.metrics
    with pytest.raises(TypeError):
        copy.models["style"] = bundle.models["hair"]
    with pytest.raises(TypeError):
        copy.provenance.metrics["style"] = 0.0


def test_pgm_text_format():
    world = small_world()
    z = sample_latents(1, 12, seed=7)[0]
    text = pgm_text(generate_image(world, z))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "32 8"  # 4 blocks of 8 columns
    assert lines[2] == "255"
    values = [int(v) for row in lines[3:] for v in row.split()]
    assert len(values) == 8 * 32
    assert min(values) >= 0 and max(values) <= 255


def _pgm_of_numpy_scalars(image):
    """pgm_text as it formatted each pixel by `str` of a numpy integer scalar."""
    pixels = np.rint(image.pixels * 255.0).astype(int)
    h, w = pixels.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(blocks=st.integers(1, 6), data=st.data())
def test_pgm_text_equals_the_numpy_scalar_formatting(blocks, data):
    pixels = data.draw(arrays(np.float64, (8, 8 * blocks),
                              elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    image = SyntheticImage(pixels)
    assert pgm_text(image) == _pgm_of_numpy_scalars(image)


def test_parse_conditioning_against_schema():
    world = small_world()
    schema = world.config.attributes
    spec = parse_conditioning("style=dress, hair=brown , smile=0.25", schema)
    assert spec.discrete == {"style": "dress", "hair": "brown"}
    assert spec.continuous == {"smile": 0.25}
    from latentsteer import ConditioningError
    with pytest.raises(ConditioningError):
        parse_conditioning("style=", schema)
    for cond in ("style=dress,,hair=brown", "style=dress,", ""):
        with pytest.raises(ConditioningError, match="empty assignment"):
            parse_conditioning(cond, schema)
    # names, classes and ranges are the director's checks, with its messages
    with pytest.raises(ConditioningError, match="unknown attribute 'ghost'; legal attributes: "
                                                "\\['hair', 'smile', 'style'\\]"):
        parse_conditioning("style=dress,ghost=1", schema)
    with pytest.raises(ConditioningError, match="unknown class 'gown' for attribute 'style'; "
                                                "legal classes: \\['tee', 'dress'\\]"):
        parse_conditioning("style=gown", schema)
    with pytest.raises(ConditioningError, match="target 2.0 for attribute 'smile' outside"):
        parse_conditioning("smile=2", schema)
    with pytest.raises(ConditioningError):
        parse_conditioning("smile=often", schema)
    for cond in ("style=dress,style=tee", "style=dress, style=dress",
                 "smile=0.2,hair=black,smile=0.2"):
        with pytest.raises(ConditioningError, match="assigned more than once"):
            parse_conditioning(cond, schema)


def test_cli_generate_with_a_repeated_attribute_exits_2(tmp_path):
    code, err = _write_and_run(tmp_path, trained_payloads(), "generate", "--seed", "1",
                               "--cond", "style=dress,style=tee")
    assert code == 2
    assert err.startswith("error:") and "'style' is assigned more than once" in err


@pytest.mark.parametrize("args", [("generate", "--seed", "1", "--cond", "style=dress,hair=blond,smile=0.7"),
                                  ("eval", "--mode", "latent", "--trials", "50"),
                                  ("eval", "--mode", "end2end", "--trials", "50")],
                         ids=["generate", "latent", "end2end"])
def test_cli_a_step_that_overflows_exits_3(tmp_path, args):
    code, err = _write_and_run(tmp_path, trained_payloads(), *args, "--delta", "1e308")
    assert code == 3
    assert err.startswith("error: the step overflows") and "not finite" in err


def write_world_config(path, dim=12, label_noise=0.0, entanglement=None):
    payload = {
        "dim": dim,
        "seed": 3,
        "label_noise": label_noise,
        "continuous_profile": "sigmoid",
        "attributes": [
            {"name": "style", "kind": "binary", "classes": ["tee", "dress"]},
            {"name": "smile", "kind": "continuous", "range": [0.0, 1.0]},
        ],
        "entanglement": entanglement,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_cli_world_init_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(["world-init", "--config", str(cfg), "--out", str(w1)]) == 0
    assert main(["world-init", "--config", str(cfg), "--out", str(w2)]) == 0
    assert w1.read_bytes() == w2.read_bytes()
    out = capsys.readouterr().out
    assert "realized entanglement" in out


def test_cli_world_init_rejects_non_psd(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg, entanglement=[[1.0, 1.2], [1.2, 1.0]])
    code = main(["world-init", "--config", str(cfg), "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert "eigenvalue" in capsys.readouterr().err


def test_cli_train_deterministic_and_missing_world(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    args = ["--world", str(world_path), "--n", "400", "--epochs", "60", "--seed", "4"]
    assert main(["train", *args, "--out", str(b1)]) == 0
    assert main(["train", *args, "--out", str(b2)]) == 0
    assert b1.read_bytes() == b2.read_bytes()
    assert main(["train", "--world", str(tmp_path / "missing.json"), "--n", "400",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_cli_generate_noop_and_pgm_dump(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    bundle_path = tmp_path / "bundle.json"
    main(["train", "--world", str(world_path), "--n", "400", "--epochs", "60",
          "--out", str(bundle_path)])
    capsys.readouterr()

    # find the sampled latent's current label, then ask for exactly that
    bundle = load_bundle(bundle_path)
    from latentsteer import latent_labels
    z = sample_latents(1, 12, seed=9)[0]
    current = latent_labels(bundle, z).discrete["style"]
    code = main(["generate", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--cond", f"style={current}", "--seed", "9"])
    assert code == 0
    assert "no (already satisfied)" in capsys.readouterr().out

    img_dir = tmp_path / "imgs"
    code = main(["generate", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--cond", "style=dress,smile=0.8", "--seed", "9",
                 "--dump-image", str(img_dir)])
    assert code == 0
    assert (img_dir / "before.pgm").exists() and (img_dir / "after.pgm").exists()
    assert (img_dir / "before.pgm").read_text().startswith("P2\n")

    code = main(["generate", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--cond", "style=gown", "--seed", "9"])
    assert code == 2
    assert "legal classes" in capsys.readouterr().err


def test_cli_generate_deterministic_pgms(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    bundle_path = tmp_path / "bundle.json"
    main(["train", "--world", str(world_path), "--n", "400", "--epochs", "60",
          "--out", str(bundle_path)])
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    for d in (d1, d2):
        assert main(["generate", "--bundle", str(bundle_path), "--world", str(world_path),
                     "--cond", "style=dress,smile=0.8", "--seed", "21",
                     "--dump-image", str(d)]) == 0
    assert (d1 / "before.pgm").read_bytes() == (d2 / "before.pgm").read_bytes()
    assert (d1 / "after.pgm").read_bytes() == (d2 / "after.pgm").read_bytes()


def test_cli_eval_modes_and_zero_trials(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    bundle_path = tmp_path / "bundle.json"
    main(["train", "--world", str(world_path), "--n", "400", "--epochs", "60",
          "--out", str(bundle_path)])
    capsys.readouterr()

    csv_path = tmp_path / "latent.csv"
    code = main(["eval", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--mode", "latent", "--trials", "50", "--seed", "2",
                 "--out-csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_text().startswith("attribute,metric,value")

    cosine_csv = tmp_path / "cosine.csv"
    code = main(["eval", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--mode", "cosine", "--out-csv", str(cosine_csv)])
    assert code == 0
    assert "style" in capsys.readouterr().out
    header, style, smile = cosine_csv.read_text().splitlines()
    assert header == "name,style,smile"
    assert style.startswith("style,1.0,") and smile.endswith(",1.0")

    code = main(["eval", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--mode", "latent", "--trials", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: trials must be at least 1, got 0\n"

    # injected ground-truth bundle on an orthogonal world scores perfectly
    from latentsteer import ground_truth_bundle, load_world, save_bundle
    gt_path = tmp_path / "gt.json"
    save_bundle(ground_truth_bundle(load_world(world_path)), gt_path)
    gt_csv = tmp_path / "gt.csv"
    code = main(["eval", "--bundle", str(gt_path), "--world", str(world_path),
                 "--mode", "latent", "--trials", "200", "--seed", "3",
                 "--out-csv", str(gt_csv)])
    assert code == 0
    style_row = next(r for r in gt_csv.read_text().splitlines() if r.startswith("style,"))
    assert style_row.split(",")[2] == "1.0"


def test_cli_train_at_scale_prints_high_accuracy(tmp_path, capsys):
    # noiseless orthogonal world: converged fits print held-out accuracy >= 0.99
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg, dim=16)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    capsys.readouterr()
    code = main(["train", "--world", str(world_path), "--n", "10000",
                 "--epochs", "1000", "--seed", "2",
                 "--out", str(tmp_path / "b.json")])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("style"):
            assert float(line.split()[-1]) >= 0.99


@pytest.mark.parametrize("flag", ["--learning-rate", "--momentum"])
def test_cli_train_rejects_removed_descent_flags(tmp_path, capsys, flag):
    # the Newton fit takes no step size or momentum, and the flags are gone
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    capsys.readouterr()
    code = main(["train", "--world", str(world_path), "--n", "200", flag, "1.0",
                 "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_cli_generate_calibrated_lands_on_target(tmp_path, capsys):
    # ground-truth bundle on an orthogonal world: requested value reached exactly
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    world_path = tmp_path / "world.json"
    main(["world-init", "--config", str(cfg), "--out", str(world_path)])
    from latentsteer import ground_truth_bundle, load_world, save_bundle
    bundle_path = tmp_path / "gt.json"
    save_bundle(ground_truth_bundle(load_world(world_path)), bundle_path)
    capsys.readouterr()
    code = main(["generate", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--cond", "smile=0.8", "--seed", "33"])
    assert code == 0
    out = capsys.readouterr().out
    smile_line = next(line for line in out.splitlines() if line.startswith("smile"))
    after_value = float(smile_line.split()[2])
    assert after_value == pytest.approx(0.8, abs=1e-6)


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--cos", "0.0,1.5", "--trials", "100", "--n", "400",
                 "--dim", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cosine,alpha_accuracy,beta_accuracy,joint_accuracy"
    assert len(lines) == 2  # 1.5 skipped as invalid
    err = capsys.readouterr().err
    assert "skipped cosine 1.5" in err

    out.unlink()
    assert main(["sweep", "--cos", "a,b", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --cos must be a comma-separated list of reals")
    assert not out.exists()


def test_cli_unknown_command_exits_2():
    assert main(["quantize"]) == 2


BUNDLE_KEYS = [(("models", "style"), key) for key in ("positive_class", "negative_class")]
BUNDLE_KEYS += [(("provenance",), key) for key in ("world_seed", "n_samples", "training_config")]
BUNDLE_KEYS += [(("provenance", "training_config"), key)
                for key in ("epochs", "l2_penalty", "split_fraction", "seed")]
WORLD_KEYS = [(("directions", 0), key) for key in ("attribute", "direction", "intercept")]


MISSING = [("bundle", *k) for k in BUNDLE_KEYS] + [("world", *k) for k in WORLD_KEYS]


@pytest.mark.parametrize("which,path,key", MISSING,
                         ids=[".".join(map(str, (w, *p, k))) for w, p, k in MISSING])
def test_cli_missing_required_key_exits_2(tmp_path, capsys, which, path, key):
    from dataclasses import replace
    from latentsteer import BundleProvenance
    world = small_world()
    bundle = replace(ground_truth_bundle(world), provenance=BundleProvenance(3, 400, TrainingConfig()))
    payloads = {"bundle": bundle_to_payload(bundle), "world": world_to_payload(world)}
    node = payloads[which]
    for step in path:
        node = node[step]
    del node[key]
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_bytes(json_bytes(payload))
    code = main(["eval", "--bundle", str(tmp_path / "bundle.json"),
                 "--world", str(tmp_path / "world.json"), "--mode", "cosine"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


def test_cli_world_init_rejects_string_classes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_world_config(cfg)
    payload = json.loads(cfg.read_text(encoding="utf-8"))
    payload["attributes"][0]["classes"] = "xyz"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["world-init", "--config", str(cfg), "--out", str(tmp_path / "w.json")]) == 2
    assert "list of strings" in capsys.readouterr().err


def _write_and_run(tmp_dir, payloads, command, *args):
    """Write the payloads as bundle.json and world.json, run the command on them,
    return (exit code, stderr)."""
    for name, payload in payloads.items():
        (Path(tmp_dir) / f"{name}.json").write_bytes(json_bytes(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--bundle", str(Path(tmp_dir) / "bundle.json"),
                     "--world", str(Path(tmp_dir) / "world.json"), *args])
    return code, err.getvalue()


def _write_and_eval(tmp_dir, payloads, mode="cosine", trials=2):
    return _write_and_run(tmp_dir, payloads, "eval", "--mode", mode, "--trials", str(trials))


@functools.cache
def _trained_files():
    world = small_world()
    bundle = run_training(world, 400, TrainingConfig(epochs=50, seed=1))
    return {"bundle": json_bytes(bundle_to_payload(bundle)), "world": json_bytes(world_to_payload(world))}


def trained_payloads():
    """Fresh payloads of a trained bundle with provenance and of its world; trained once."""
    return {name: json.loads(data) for name, data in _trained_files().items()}


BAD_FIELDS = [
    ("bundle", ("provenance",), "world_seed", None),
    ("bundle", ("models", "style"), "intercept", None),
    ("bundle", ("models", "style", "training_meta"), "epochs_run", None),
    ("bundle", (), "schema", 5),
    ("bundle", (), "models", []),
    ("world", ("config",), "dim", None),
    ("world", (), "directions", 3),
    ("world", ("config",), "label_noise", None),
    # numbers that do not fit a float: json writes Infinity and a 401-digit integer
    ("bundle", ("models", "style"), "intercept", float("inf")),
    ("world", ("directions", 0), "intercept", 10**400),
]


@pytest.mark.parametrize("which,path,key,value", BAD_FIELDS,
                         ids=[".".join(map(str, (w, *p, k, type(v).__name__)))
                              for w, p, k, v in BAD_FIELDS])
def test_cli_wrong_typed_or_non_finite_field_exits_2(tmp_path, which, path, key, value):
    payloads = trained_payloads()
    node = payloads[which]
    for step in path:
        node = node[step]
    node[key] = value
    code, err = _write_and_eval(tmp_path, payloads)
    assert code == 2
    assert err.startswith("error:") and f"{which}.json" in err and repr(key) in err


def _repeat_first_attribute(payloads):
    schema = payloads["bundle"]["schema"]
    schema.append(dict(schema[0]))


def _add_unnamed_model(payloads):
    models = payloads["bundle"]["models"]
    models["ghost"] = dict(models["smile"])


# mutations of value that loaded and ran at exit 0, each with a word of its error line
BAD_VALUES = {
    "bundle.latent_dim": (lambda payloads: payloads["bundle"].update(latent_dim=5), "'latent_dim'"),
    "bundle.schema.repeated": (_repeat_first_attribute, "repeats an attribute"),
    "bundle.models.unnamed": (_add_unnamed_model, "'ghost'"),
}


@pytest.mark.parametrize("mode", ["cosine", "latent", "end2end"])
@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_cli_bad_field_value_exits_2(tmp_path, name, mode):
    mutate, message = BAD_VALUES[name]
    payloads = trained_payloads()
    mutate(payloads)
    code, err = _write_and_eval(tmp_path, payloads, mode)
    assert code == 2
    assert err.startswith("error:") and message in err


_JSON_KINDS = ((type(None), "null"), (bool, "bool"), ((int, float), "number"), (str, "string"),
               (list, "array"), (dict, "object"))
_REPLACEMENTS = [None, True, 3, 0.5, "x", [], [1.0], {}, {"x": 1}]


def _json_kind(value):
    return next(name for types, name in _JSON_KINDS if isinstance(value, types))


def _node_paths(node, prefix=()):
    """Every node of a JSON tree; of a list, only the first and the last element."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, prefix + (key,))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) - 1}):
            yield from _node_paths(node[i], prefix + (i,))


@st.composite
def type_mutations(draw):
    which = draw(st.sampled_from(["bundle", "world"]))
    paths = list(_node_paths(trained_payloads()[which]))
    path = draw(st.sampled_from(paths))
    node = trained_payloads()[which]
    for step in path:
        node = node[step]
    value = draw(st.sampled_from([v for v in _REPLACEMENTS if _json_kind(v) != _json_kind(node)]))
    return which, path, value


@settings(max_examples=300, deadline=None)
@given(type_mutations(), st.sampled_from(["cosine", "latent", "end2end"]))
def test_cli_single_field_type_mutation_exits_0_or_2(mutation, mode):
    which, path, value = mutation
    payloads = trained_payloads()
    if path:
        node = payloads[which]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    else:
        payloads[which] = value
    with tempfile.TemporaryDirectory() as tmp_dir:
        code, err = _write_and_eval(tmp_dir, payloads, mode)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error:")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(min_size=1, max_size=4)


@st.composite
def training_metas(draw):
    """Any fit record: NaN or finite loss and gradient norm, null or finite held-out metrics."""
    return TrainingMeta(epochs_run=draw(st.integers(0, 10**6)),
                        final_loss=draw(st.just(float("nan")) | FINITE),
                        test_accuracy=draw(st.none() | st.floats(0.0, 1.0)),
                        test_rmse=draw(st.none() | FINITE),
                        grad_norm=draw(st.just(float("nan")) | FINITE))


@st.composite
def random_bundles(draw):
    """A bundle of 1-4 attributes of every kind over a random dim, with or without provenance."""
    dim = draw(st.integers(1, 6))
    schema, models = [], {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["binary", "multiclass", "continuous"]),
                                           min_size=1, max_size=4))):
        name = f"a{i}"
        if kind == "continuous":
            lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
            schema.append(AttributeSchema.continuous(name, lo, hi))
            classes = ()
        else:
            k = 2 if kind == "binary" else draw(st.integers(3, 5))
            classes = tuple(draw(st.lists(NAMES, min_size=k, max_size=k, unique=True)))
            schema.append(AttributeSchema(name, kind, classes))
            classes = tuple(draw(st.permutations(classes)))  # a model may order its classes freely
        rows = len(classes) if kind == "multiclass" else 1
        models[name] = LatentModel(kind, draw(arrays(np.float64, (rows, dim), elements=FINITE)),
                                   draw(arrays(np.float64, rows, elements=FINITE)), classes,
                                   draw(training_metas()))
    provenance = draw(st.none() | st.builds(
        BundleProvenance, st.integers(), st.integers(0, 10**9),
        st.builds(TrainingConfig, epochs=st.integers(1, 10**4), l2_penalty=st.floats(0.0, 1.0),
                  split_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  seed=st.integers(0, 2**63)),
        st.dictionaries(NAMES, st.none() | FINITE, max_size=3)))
    return ModelBundle(tuple(schema), models, provenance)


@settings(max_examples=200, deadline=None)
@given(random_bundles())
def test_bundle_save_load_save_is_byte_exact(bundle):
    saved = json_bytes(bundle_to_payload(bundle))
    loaded = payload_to_bundle(json.loads(saved))
    assert json_bytes(bundle_to_payload(loaded)) == saved
    for attr in bundle.schema:
        a, b = bundle.models[attr.name], loaded.models[attr.name]
        assert (a.kind, a.classes) == (b.kind, b.classes)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.intercepts.tobytes() == b.intercepts.tobytes()


def _set(*path):
    """A mutation that sets the node at path to the drawn value."""
    def mutate(payloads, value):
        node = payloads
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return mutate


def _resize(*path):
    """A mutation that gives the list at path a drawn length other than its own."""
    def mutate(payloads, length):
        node = payloads
        for step in path:
            node = node[step]
        node[:] = (node * 20)[:length] if length != len(node) else node + node[:1]
    return mutate


def _copy_class_name(payloads, pair):
    names = payloads["bundle"]["models"]["hair"]["class_names"]
    names[pair[0] % 3] = names[pair[1] % 3]


KINDS = ["binary", "multiclass", "regressor", "continuous"]
# value mutations of a valid bundle and world: (mutation, strategy of the value it takes)
VALUE_MUTATIONS = {
    "style.direction length": (_resize("bundle", "models", "style", "direction"), st.integers(0, 14)),
    "smile.direction length": (_resize("bundle", "models", "smile", "direction"), st.integers(0, 14)),
    "hair.class_weights[1] length": (_resize("bundle", "models", "hair", "class_weights", 1),
                                     st.integers(0, 14)),
    "hair.class_weights rows": (_resize("bundle", "models", "hair", "class_weights"),
                                st.integers(0, 5)),
    "hair.class_intercepts length": (_resize("bundle", "models", "hair", "class_intercepts"),
                                     st.integers(0, 5)),
    "hair.class_names length": (_resize("bundle", "models", "hair", "class_names"),
                                st.integers(0, 5)),
    "world direction length": (_resize("world", "directions", 0, "direction"), st.integers(0, 14)),
    "style.kind": (_set("bundle", "models", "style", "kind"), st.sampled_from(KINDS) | NAMES),
    "hair.kind": (_set("bundle", "models", "hair", "kind"), st.sampled_from(KINDS) | NAMES),
    "smile.kind": (_set("bundle", "models", "smile", "kind"), st.sampled_from(KINDS) | NAMES),
    "schema[0].kind": (_set("bundle", "schema", 0, "kind"), st.sampled_from(KINDS)),
    "hair.class_names duplicate": (_copy_class_name, st.tuples(st.integers(0, 2), st.integers(1, 2))),
    "style.positive_class": (_set("bundle", "models", "style", "positive_class"),
                             st.sampled_from(["tee", "dress", "gown"])),
    "style.negative_class": (_set("bundle", "models", "style", "negative_class"),
                             st.sampled_from(["tee", "dress", "gown"])),
}


@st.composite
def value_mutations(draw):
    name = draw(st.sampled_from(sorted(VALUE_MUTATIONS)))
    mutate, values = VALUE_MUTATIONS[name]
    return name, mutate, draw(values)


def _write_and_run_command(tmp_dir, payloads, command):
    """`generate` with a fixed condition and image dump, or `eval` in the mode command names."""
    if command == "generate":
        return _write_and_run(tmp_dir, payloads, "generate", "--seed", "1",
                              "--cond", "style=dress,hair=blond,smile=0.7",
                              "--dump-image", str(Path(tmp_dir) / "img"))
    return _write_and_eval(tmp_dir, payloads, command)


@settings(max_examples=300, deadline=None)
@given(value_mutations(), st.sampled_from(["cosine", "latent", "end2end", "generate"]))
def test_cli_single_field_value_mutation_exits_0_or_2(mutation, command):
    name, mutate, value = mutation
    payloads = trained_payloads()
    mutate(payloads, value)
    with tempfile.TemporaryDirectory() as tmp_dir:
        code, err = _write_and_run_command(tmp_dir, payloads, command)
    assert code in (0, 2), f"{name}={value!r}: {err}"
    if code == 2:
        assert err.startswith("error:")


def test_cli_cosines_of_a_direction_scaled_by_a_power_of_two_are_unchanged(tmp_path, capsys):
    outputs = []
    for scale in (1.0, 2.0**900):
        payloads = trained_payloads()
        style = payloads["bundle"]["models"]["style"]
        style["direction"] = [v * scale for v in style["direction"]]
        for name, payload in payloads.items():
            (tmp_path / f"{name}.json").write_bytes(json_bytes(payload))
        code = main(["eval", "--bundle", str(tmp_path / "bundle.json"), "--world",
                     str(tmp_path / "world.json"), "--mode", "cosine",
                     "--out-csv", str(tmp_path / "cosine.csv")])
        assert code == 0
        outputs.append((capsys.readouterr().out, (tmp_path / "cosine.csv").read_text()))
    assert outputs[1] == outputs[0]
    assert "0.000" not in outputs[0][0].splitlines()[1]  # style's row: off-diagonal cosines nonzero


@pytest.mark.parametrize("k", [-900, 900])
def test_cli_steering_along_directions_scaled_by_a_power_of_two_is_unchanged(tmp_path, capsys, k):
    outputs = []
    for scale in (1.0, 2.0**k):
        payloads = trained_payloads()
        for model in payloads["bundle"]["models"].values():
            keys = {"binary": ("direction", "intercept"),
                    "multiclass": ("class_weights", "class_intercepts")}.get(model["kind"], ())
            for key in keys:
                model[key] = (np.array(model[key]) * scale).tolist()
        for name, payload in payloads.items():
            (tmp_path / f"{name}.json").write_bytes(json_bytes(payload))
        files = ["--bundle", str(tmp_path / "bundle.json"), "--world", str(tmp_path / "world.json")]
        for argv in (["generate", *files, "--seed", "0", "--cond", "style=dress,hair=black,smile=0.7"],
                     ["eval", *files, "--mode", "latent", "--trials", "300", "--rounds", "3"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[2:] == outputs[:2]
    distances = outputs[0].split("dist after")[1].split()
    assert distances[:6:3] == ["style", "hair"] and "-0.0000" not in distances


# model fields whose every number a scale mutation sets to one value
SCALED_FIELDS = {
    "style.direction": ("bundle", "models", "style", "direction"),
    "smile.direction": ("bundle", "models", "smile", "direction"),
    "style.intercept": ("bundle", "models", "style", "intercept"),
    "hair.class_weights": ("bundle", "models", "hair", "class_weights"),
}


def _fill(node, value):
    return [_fill(child, value) for child in node] if isinstance(node, list) else value


@pytest.mark.parametrize("command", ["latent", "end2end", "cosine", "generate"])
@pytest.mark.parametrize("value", [1e300, 1e-300, 5e-324, 0.0])
@pytest.mark.parametrize("field", list(SCALED_FIELDS))
def test_cli_scaled_field_exits_0_2_or_3(tmp_path, field, value, command):
    *path, key = SCALED_FIELDS[field]
    payloads = trained_payloads()
    node = payloads
    for step in path:
        node = node[step]
    node[key] = _fill(node[key], value)
    code, err = _write_and_run_command(tmp_path, payloads, command)
    assert code in (0, 2, 3), f"{field}={value!r}: {err}"
    if code != 0:
        assert err.startswith("error:")
