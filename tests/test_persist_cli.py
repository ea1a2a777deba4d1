"""File formats and the command-line surface."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsteer import (
    AttributeSchema,
    FormatError,
    TrainingConfig,
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
from latentsteer.persist import json_bytes, bundle_to_payload, pgm_text, world_to_payload


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


def test_parse_conditioning_against_schema():
    world = small_world()
    schema = world.config.attributes
    spec = parse_conditioning("style=dress, hair=brown , smile=0.25", schema)
    assert spec.discrete == {"style": "dress", "hair": "brown"}
    assert spec.continuous == {"smile": 0.25}
    from latentsteer import ConditioningError
    with pytest.raises(ConditioningError):
        parse_conditioning("style=", schema)
    with pytest.raises(ConditioningError):
        parse_conditioning("ghost=1", schema)
    with pytest.raises(ConditioningError):
        parse_conditioning("style=gown", schema)
    with pytest.raises(ConditioningError):
        parse_conditioning("smile=often", schema)


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

    code = main(["eval", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--mode", "cosine"])
    assert code == 0
    assert "style" in capsys.readouterr().out

    code = main(["eval", "--bundle", str(bundle_path), "--world", str(world_path),
                 "--mode", "latent", "--trials", "0"])
    assert code == 2

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
                 "--learning-rate", "1.0", "--epochs", "1000", "--seed", "2",
                 "--out", str(tmp_path / "b.json")])
    assert code == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("style"):
            assert float(line.split()[-1]) >= 0.99


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


def _write_and_eval(tmp_dir, payloads, mode="cosine", trials=2):
    """Write the payloads as bundle.json and world.json, run `eval`, return (exit code, stderr)."""
    for name, payload in payloads.items():
        (Path(tmp_dir) / f"{name}.json").write_bytes(json_bytes(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--bundle", str(Path(tmp_dir) / "bundle.json"),
                     "--world", str(Path(tmp_dir) / "world.json"), "--mode", mode,
                     "--trials", str(trials)])
    return code, err.getvalue()


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
