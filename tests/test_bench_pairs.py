"""The benchmark-pairs record: per-metric summary of base/head result lines."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(op_ms, accuracy):
    return {"metrics": {"op_p50_ms": {"value": op_ms, "unit": "ms"},
                        "accuracy": {"value": accuracy, "unit": "ratio"}}}


def test_summary_counts_pairs_by_each_metrics_better_direction():
    pairs = [{"base": _line(b, acc_b), "head": _line(h, acc_h)}
             for b, h, acc_b, acc_h in [(10.0, 8.0, 0.9, 0.9), (12.0, 9.0, 0.9, 0.8),
                                        (11.0, 11.5, 0.8, 0.9), (10.0, 10.0, 0.9, 0.95)]]
    summary = bench_pairs.summarize(pairs, {"op_p50_ms": "lower", "accuracy": "higher"})
    op, acc = summary["op_p50_ms"], summary["accuracy"]
    assert (op["pairs_head_better"], op["pairs_tied"]) == (2, 1)
    assert (acc["pairs_head_better"], acc["pairs_tied"]) == (2, 1)
    assert op["base_median"] == 10.5 and op["head_median"] == 9.5
    assert op["median_change"] == (9.5 - 10.5) / 10.5
    assert op["pair_changes"] == [-0.2, -0.25, 0.5 / 11.0, 0.0]
    assert op["unit"] == "ms" and op["better"] == "lower"
