"""The eval-parity comparison of two revisions' reports and fits."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "eval_parity", Path(__file__).resolve().parent.parent / "tools" / "eval_parity.py")
eval_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_parity)


def _figures(style_acc=0.9, joint=0.8, rmse=0.02, weights=(1.0, -2.0), intercept=0.5,
             metric=0.963, iterations=7, bundle_sha256=None, setup_weights=(3.0, 4.0),
             setup_intercept=-1.0):
    report = {"trials": 2000, "accuracy": {"style": style_acc}, "joint": joint,
              "rmse": {"smile": rmse}}
    return {"reports": {"latent seed=1": report, "end2end seed=1": dict(report, rmse={})},
            "training": {"style": {"metric": metric, "iterations": iterations,
                                   "weights": [list(weights)], "intercepts": [intercept]}},
            "setup": {"style": {"weights": [list(setup_weights)], "intercepts": [setup_intercept]}},
            "cli": {"eval --mode latent": "exit 0\nevaluation: latent\n",
                    "eval --mode latent csv": "attribute,metric\n"},
            "bundle_sha256": bundle_sha256 or {"1": {"2000": "a1", "10000": "b1"},
                                               "2": {"2000": "a2", "10000": "b2"}}}


def test_equal_figures_compare_equal():
    c = eval_parity.compare(_figures(), _figures())
    assert c["reports"] == 2 and c["accuracies_equal"] and c["reports_differing"] == {}
    assert c["rmse_max_rel_diff"] == 0.0 and c["accuracy_max_z"] == 0.0
    assert c["cli_outputs"] == 2 and c["cli_differing"] == [] and c["cli_texture_only"] == []
    assert c["cli_numbers_only"] == {}
    assert c["bundles_differing"] == []
    assert c["training"]["style"] == {"iterations": [7, 7], "metric_equal": True,
                                      "weights_rel_diff": 0.0, "intercepts_rel_diff": 0.0}
    assert c["setup_fits"] == {"style": {"weights_rel_diff": 0.0, "intercepts_rel_diff": 0.0}}


def test_an_rmse_in_its_last_digits_differs_by_repr_but_keeps_accuracies_equal():
    c = eval_parity.compare(_figures(rmse=0.02), _figures(rmse=0.02 * (1 + 4e-16)))
    assert c["accuracies_equal"]
    assert c["reports_differing"] == {"latent seed=1": ["rmse"]}
    assert 0.0 < c["rmse_max_rel_diff"] < 1e-15


@pytest.mark.parametrize("head, field", [(dict(style_acc=0.9005), "accuracy"),
                                         (dict(joint=0.7995), "joint")])
def test_a_moved_accuracy_is_named(head, field):
    c = eval_parity.compare(_figures(), _figures(**head))
    assert not c["accuracies_equal"]
    assert c["reports_differing"] == {"latent seed=1": [field], "end2end seed=1": [field]}


def test_accuracy_max_z_is_the_largest_difference_in_standard_errors():
    # joint 0.8 -> 0.77 at 2,000 trials each: se = sqrt((0.16 + 0.1771) / 2000)
    c = eval_parity.compare(_figures(), _figures(style_acc=0.91, joint=0.77))
    assert c["accuracy_max_z"] == pytest.approx(0.03 / math.sqrt(0.3371 / 2000), rel=1e-12)
    assert 2.3 < c["accuracy_max_z"] < 2.4
    c = eval_parity.compare(_figures(style_acc=1.0, joint=0.0), _figures(style_acc=1.0, joint=0.0))
    assert c["accuracy_max_z"] == 0.0  # no spread and no difference
    assert eval_parity.compare(_figures(style_acc=1.0), _figures(style_acc=0.9995))[
        "accuracy_max_z"] == pytest.approx(1.0, rel=1e-3)  # one trial in 2,000


def test_a_missing_report_counts_as_unequal():
    head = _figures()
    del head["reports"]["end2end seed=1"]
    c = eval_parity.compare(_figures(), head)
    assert not c["accuracies_equal"] and c["reports_differing"] == {"end2end seed=1": ["missing"]}


def test_fit_differences_are_relative_to_the_base_and_iterations_are_paired():
    c = eval_parity.compare(_figures(), _figures(weights=(1.0, -2.0 + 2e-12), intercept=0.5 + 1e-13,
                                                 metric=0.9625, iterations=8))
    fit = c["training"]["style"]
    assert fit["iterations"] == [7, 8] and not fit["metric_equal"]
    assert fit["weights_rel_diff"] == pytest.approx(1e-12, rel=1e-3)
    assert fit["intercepts_rel_diff"] == pytest.approx(2e-13, rel=1e-3)


def test_setup_fit_differences_are_relative_to_the_base_and_apart_from_the_n10k_fits():
    c = eval_parity.compare(_figures(), _figures(setup_weights=(3.0, 4.0 - 8e-16),
                                                 setup_intercept=-1.0 + 3e-15))
    assert c["setup_fits"]["style"]["weights_rel_diff"] == pytest.approx(2e-16, rel=0.2)
    assert c["setup_fits"]["style"]["intercepts_rel_diff"] == pytest.approx(3e-15, rel=0.1)
    assert c["training"]["style"]["weights_rel_diff"] == 0.0
    assert c["accuracies_equal"] and c["cli_differing"] == []


def test_the_setup_fits_are_the_n2000_bundles(monkeypatch):
    """measure records each model of the N=2,000 bundle that the reports and CLI outputs
    evaluate, and leaves its weights out of the printed figures."""
    import sys
    from latentsteer import TrainingConfig, build_world, run_training

    trained = []

    def recorded(world, n, cfg):
        trained.append(n)
        return run_training(world, 300 if n == 2000 else 400, TrainingConfig(epochs=50, seed=3))

    import latentsteer
    monkeypatch.setattr(latentsteer, "run_training", recorded)
    monkeypatch.setattr(eval_parity, "eval_reports", lambda world, bundle, trials: {})
    monkeypatch.setattr(eval_parity, "cli_outputs", lambda world, bundle: {})
    monkeypatch.setattr(sys, "path", list(sys.path))  # measure puts the tree's bench first
    figures = eval_parity.measure(Path(__file__).resolve().parent.parent)
    from workloads import world_config

    bundle = run_training(build_world(world_config()), 300, TrainingConfig(epochs=50, seed=3))
    assert trained == [2000, 10_000]
    assert figures["setup"] == {name: {"weights": m.weights.tolist(),
                                       "intercepts": m.intercepts.tolist()}
                                for name, m in bundle.models.items()}
    assert "setup" not in eval_parity._without_weights(dict(figures, bundle_sha256={}))


def test_cli_outputs_that_differ_by_a_byte_or_are_missing_are_listed():
    head = _figures()
    head["cli"]["eval --mode latent csv"] = "attribute,metric\r\n"
    del head["cli"]["eval --mode latent"]
    c = eval_parity.compare(_figures(), head)
    assert c["accuracies_equal"] and c["reports_differing"] == {}
    assert c["cli_differing"] == ["eval --mode latent", "eval --mode latent csv"]


_CSV = "attribute,metric,value,trials\r\nstyle,accuracy,0.9125,2000\r\nsmile,rmse,{},2000\r\n"
_NEXT = math.nextafter(0.01753, 1.0)  # the RMSE moved in its last bit


@pytest.mark.parametrize("head, listed", [
    (_CSV.format(repr(_NEXT)), {"eval --mode latent csv": (_NEXT - 0.01753) / 0.01753}),
    (_CSV.format("-1e-3"), {"eval --mode latent csv": 1e-3 / 0.01753 + 1.0}),
    (_CSV.format("0.01753").replace("2000\r\nsmile", "2001\r\nsmile"),
     {"eval --mode latent csv": 1 / 2000}),
    (_CSV.format("0.01753").replace("rmse", "mae"), None),
    (_CSV.format("0.01753").replace("\r\n", "\n"), None),
    (_CSV.format("0.01753,1"), None),
    (_CSV.format("nan"), None),
    (_CSV.format("0.01753") + "pose,accuracy,0.5,2000\r\n", None),
], ids=["last-bit", "exponent", "integer", "text-cell", "line-ending", "extra-field", "nan",
        "extra-row"])
def test_a_csv_that_differs_only_in_numeric_cells_is_listed_apart_with_its_largest_difference(
        head, listed):
    base, other = _figures(), _figures()
    base["cli"]["eval --mode latent csv"] = _CSV.format("0.01753")
    other["cli"]["eval --mode latent csv"] = head
    c = eval_parity.compare(base, other)
    if listed is None:
        assert c["cli_differing"] == ["eval --mode latent csv"] and c["cli_numbers_only"] == {}
    else:
        assert c["cli_differing"] == [] and c["cli_texture_only"] == []
        assert c["cli_numbers_only"].keys() == listed.keys()
        for name, largest in listed.items():
            assert c["cli_numbers_only"][name] == pytest.approx(largest, rel=1e-9, abs=0.0)


def test_a_text_output_that_differs_only_in_numbers_is_not_a_csv():
    base, other = _figures(), _figures()
    base["cli"]["eval --mode latent"] += "smile rmse 0.01753\n"
    other["cli"]["eval --mode latent"] += "smile rmse 0.01754\n"
    c = eval_parity.compare(base, other)
    assert c["cli_differing"] == ["eval --mode latent"] and c["cli_numbers_only"] == {}


def test_bundle_hashes_that_differ_or_are_missing_are_listed_by_thread_count_and_size():
    head = _figures(bundle_sha256={"1": {"2000": "a1", "10000": "c1"}, "2": {"2000": "a2"}})
    c = eval_parity.compare(_figures(), head)
    assert c["bundles_differing"] == ["1 threads N=10000", "2 threads N=10000"]
    assert c["accuracies_equal"] and c["cli_differing"] == []


def test_bundle_hashes_are_those_of_the_saved_bundles(tmp_path, monkeypatch):
    import hashlib
    import sys
    from latentsteer import TrainingConfig, build_world, persist, run_training

    monkeypatch.setattr(eval_parity, "HASH_SAMPLES", (300, 400))
    monkeypatch.setattr(sys, "path", list(sys.path))  # bundle_hashes puts the tree's bench first
    hashes = eval_parity.bundle_hashes(Path(__file__).resolve().parent.parent)
    from workloads import world_config

    world = build_world(world_config())
    for n in (300, 400):
        path = tmp_path / f"{n}.json"
        persist.save_bundle(run_training(world, n, TrainingConfig(epochs=1000, seed=3)), path)
        assert hashes[str(n)] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashes["300"] != hashes["400"]


def _pgm(attribute_pixel=10, texture_pixel=20):
    """A two-block P2 image, 16 wide and 8 high: one attribute block, then the texture block."""
    row = " ".join([str(attribute_pixel)] * 8 + [str(texture_pixel)] * 8)
    return "P2\n16 8\n255\n" + "\n".join([row] * 8) + "\n"


def test_images_that_differ_only_in_the_texture_block_are_listed_apart():
    base, head = _figures(), _figures()
    for figures, texture in ((base, 20), (head, 21)):
        figures["cli"]["generate request 0 after.pgm"] = _pgm(texture_pixel=texture)
        figures["cli"]["generate request 0 before.pgm"] = _pgm()
    base["cli"]["generate request 1 after.pgm"] = _pgm(attribute_pixel=10)
    head["cli"]["generate request 1 after.pgm"] = _pgm(attribute_pixel=11, texture_pixel=21)
    head["cli"]["eval --mode latent"] = "exit 0\nevaluation: latent \n"
    c = eval_parity.compare(base, head)
    assert c["cli_outputs"] == 5
    assert c["cli_texture_only"] == ["generate request 0 after.pgm"]
    assert c["cli_differing"] == ["eval --mode latent", "generate request 1 after.pgm"]


def test_a_latent_moved_in_its_last_bit_changes_only_the_rendered_texture_block():
    import numpy as np
    from latentsteer import build_world, generate_image
    from latentsteer.models import AttributeSchema
    from latentsteer.persist import pgm_text
    from latentsteer.world import WorldConfig

    world = build_world(WorldConfig(dim=8, attributes=(AttributeSchema.binary("a", "n", "p"),
                                                       AttributeSchema.continuous("v", 0.0, 1.0)),
                                    seed=3))
    z = np.full(8, 0.3)
    before, after = (pgm_text(generate_image(world, v)) for v in (z, np.nextafter(z, 1.0)))
    assert before != after
    assert eval_parity._attribute_blocks(before) == eval_parity._attribute_blocks(after)


def test_cli_outputs_name_their_files_the_same_way_on_every_run():
    from latentsteer import TrainingConfig, build_world, run_training
    from latentsteer.models import AttributeSchema
    from latentsteer.world import WorldConfig

    world = build_world(WorldConfig(dim=8, attributes=(AttributeSchema.binary("a", "n", "p"),
                                                       AttributeSchema.continuous("v", 0.0, 1.0)),
                                    seed=3))
    bundle = run_training(world, 300, TrainingConfig(epochs=50, seed=1))
    first = eval_parity.cli_outputs(world, bundle)
    assert first == eval_parity.cli_outputs(world, bundle)
    assert len(first) == 39
    cosine = first["eval --mode cosine"]
    assert cosine.startswith("exit 0\n") and cosine.endswith("csv written to cosine.csv\n")
    assert first["eval --mode cosine csv"].splitlines()[0] == "name,a,v"
    assert first["eval --mode latent --rounds 1"].startswith("exit 0\nevaluation: latent")
    assert "csv written to eval.csv" in first["eval --mode end2end --rounds 3"]
    assert first["sweep --cos 0,0.57,0.9 csv"].startswith("cosine,alpha_accuracy")
    assert first["generate phase 0 request 0"].endswith(
        "images written to images/before.pgm and images/after.pgm\n")
    assert first["generate phase 2 request 2 after.pgm"].startswith("P2\n")


def test_generate_requests_read_the_bundle_written_over_the_last():
    from latentsteer import TrainingConfig, build_world, run_training
    from latentsteer.models import AttributeSchema
    from latentsteer.world import WorldConfig

    world = build_world(WorldConfig(dim=8, attributes=(AttributeSchema.binary("a", "n", "p"),
                                                       AttributeSchema.continuous("v", 0.0, 1.0)),
                                    seed=3))
    outputs = eval_parity.cli_outputs(world, run_training(world, 300, TrainingConfig(seed=1)))
    for i in range(3):
        trained, truth, again = (f"generate phase {phase} request {i}" for phase in range(3))
        assert outputs[trained].startswith("exit 0\n") and outputs[truth].startswith("exit 0\n")
        assert outputs[truth] != outputs[trained]
        assert outputs[f"{truth} after.pgm"] != outputs[f"{trained} after.pgm"]
        assert outputs[f"{truth} before.pgm"] == outputs[f"{trained} before.pgm"]
        for suffix in ("", " before.pgm", " after.pgm"):
            assert outputs[again + suffix] == outputs[trained + suffix]


def test_eval_reports_cover_seeds_beyond_one_and_two_words():
    from latentsteer import EvalConfig, build_world, eval_end_to_end, ground_truth_bundle
    from latentsteer.models import AttributeSchema
    from latentsteer.world import WorldConfig

    world = build_world(WorldConfig(dim=8, attributes=(AttributeSchema.binary("a", "n", "p"),
                                                       AttributeSchema.continuous("v", 0.0, 1.0)),
                                    seed=3))
    bundle = ground_truth_bundle(world)
    reports = eval_parity.eval_reports(world, bundle, 20)
    assert len(reports) == 22
    for seed in (2**32 + 1, 2**64 + 1):
        report = eval_end_to_end(bundle, world, 20, EvalConfig(seed=seed))
        assert reports[f"eval_end_to_end seed={seed} rounds=1 corrected/calibrated"] == {
            "trials": 20, "accuracy": report.accuracy, "joint": report.joint_discrete_accuracy,
            "rmse": report.rmse}
