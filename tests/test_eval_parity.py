"""The eval-parity comparison of two revisions' reports and fits."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "eval_parity", Path(__file__).resolve().parent.parent / "tools" / "eval_parity.py")
eval_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_parity)


def _figures(style_acc=0.9, joint=0.8, rmse=0.02, weights=(1.0, -2.0), intercept=0.5,
             metric=0.963, iterations=7):
    report = {"accuracy": {"style": style_acc}, "joint": joint, "rmse": {"smile": rmse}}
    return {"reports": {"latent seed=1": report, "end2end seed=1": dict(report, rmse={})},
            "training": {"style": {"metric": metric, "iterations": iterations,
                                   "weights": [list(weights)], "intercepts": [intercept]}},
            "cli": {"eval --mode latent": "exit 0\nevaluation: latent\n",
                    "eval --mode latent csv": "attribute,metric\n"}}


def test_equal_figures_compare_equal():
    c = eval_parity.compare(_figures(), _figures())
    assert c["reports"] == 2 and c["accuracies_equal"] and c["reports_differing"] == {}
    assert c["rmse_max_rel_diff"] == 0.0
    assert c["cli_outputs"] == 2 and c["cli_differing"] == []
    assert c["training"]["style"] == {"iterations": [7, 7], "metric_equal": True,
                                      "weights_rel_diff": 0.0, "intercepts_rel_diff": 0.0}


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


def test_cli_outputs_that_differ_by_a_byte_or_are_missing_are_listed():
    head = _figures()
    head["cli"]["eval --mode latent csv"] = "attribute,metric\r\n"
    del head["cli"]["eval --mode latent"]
    c = eval_parity.compare(_figures(), head)
    assert c["accuracies_equal"] and c["reports_differing"] == {}
    assert c["cli_differing"] == ["eval --mode latent", "eval --mode latent csv"]


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
    assert first["eval --mode latent --rounds 1"].startswith("exit 0\nevaluation: latent")
    assert "csv written to eval.csv" in first["eval --mode end2end --rounds 3"]
    assert first["sweep --cos 0,0.57,0.9 csv"].startswith("cosine,alpha_accuracy")
