"""Eval and training parity of two revisions, printed as one JSON document.

Run from the repository root:

    python3 tools/eval_parity.py [--base HEAD~1] [--head HEAD]

Each revision is exported with `git archive` into its own temporary
directory, as tools/bench_pairs.py does, and measured in a fresh process
with one BLAS thread on the bench world (bench/workloads.py, seed 57) with
training seed 3:

- 18 eval reports of an N=2,000 bundle, 2,000 trials each: eval seeds
  {1, 2, 99} x rounds {1, 3}, and the three other sign_convention x
  continuous_calibration pairs at seed 1, for both evals;
- run_training at N=10,000, capped at 1,000 Newton steps: per model the
  held-out metric, iterations, final loss, max |grad|, weights and
  intercepts;
- the CLI's output: the text and the `--out-csv` file of `eval --mode
  latent|end2end` on the N=2,000 bundle (seed 1, rounds 1 and 3), and the
  text and CSV of a small `sweep`.

The output holds both revisions' figures (weights and CLI output left out)
and their comparison: the report fields that differ by repr, the largest
relative RMSE difference, per model whether the held-out metric is equal by
repr and the largest relative weight and intercept differences, and the CLI
outputs that differ byte for byte. Uses the standard library and numpy, and
changes nothing under bench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _number(x):
    """A float for JSON: None for NaN, which a regressor's loss and gradient are."""
    return None if x is None or math.isnan(x) else float(x)


def measure(tree: Path) -> dict:
    """The reports and the N=10k training figures of the package in tree/src."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from latentsteer import (DirectorConfig, EvalConfig, TrainingConfig, build_world,
                             eval_end_to_end, eval_latent_modification, run_training)
    from workloads import world_config

    world = build_world(world_config())
    cfg = TrainingConfig(epochs=1000, seed=3)
    bundle = run_training(world, 2000, cfg)
    configs = [(seed, rounds, DirectorConfig()) for seed in (1, 2, 99) for rounds in (1, 3)]
    configs += [(1, 1, DirectorConfig(sign_convention=sc, continuous_calibration=cc))
                for sc, cc in [("corrected", "paper_literal"), ("paper_literal", "calibrated"),
                               ("paper_literal", "paper_literal")]]
    reports = {}
    for seed, rounds, director in configs:
        for ev in (eval_latent_modification, eval_end_to_end):
            r = ev(bundle, world, 2000, EvalConfig(seed=seed, director=director, rounds=rounds))
            name = (f"{ev.__name__} seed={seed} rounds={rounds} "
                    f"{director.sign_convention}/{director.continuous_calibration}")
            reports[name] = {"accuracy": r.accuracy, "joint": r.joint_discrete_accuracy,
                             "rmse": r.rmse}
    big = run_training(world, 10_000, cfg)
    training = {}
    for name, model in big.models.items():
        meta = model.training_meta
        training[name] = {"metric": big.provenance.metrics[name], "iterations": meta.epochs_run,
                          "final_loss": _number(meta.final_loss),
                          "grad_norm": _number(meta.grad_norm),
                          "weights": model.weights.tolist(),
                          "intercepts": model.intercepts.tolist()}
    return {"reports": reports, "training": training, "cli": cli_outputs(world, bundle)}


def cli_outputs(world, bundle) -> dict:
    """Standard output and written CSV of CLI evals and a sweep, run in a scratch directory.

    The files are named relative to it, so the text that names them is the
    same on every run.
    """
    from latentsteer import cli, persist

    def run(*argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return f"exit {code}\n{out.getvalue()}"

    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="eval-parity-cli-") as tmp:
        os.chdir(tmp)
        try:
            persist.save_world(world, "world.json")
            persist.save_bundle(bundle, "bundle.json")
            for mode in ("latent", "end2end"):
                for rounds in ("1", "3"):
                    name = f"eval --mode {mode} --rounds {rounds}"
                    outputs[name] = run("eval", "--bundle", "bundle.json", "--world", "world.json",
                                        "--mode", mode, "--trials", "2000", "--seed", "1",
                                        "--rounds", rounds, "--out-csv", "eval.csv")
                    outputs[f"{name} csv"] = Path("eval.csv").read_text(encoding="utf-8")
            name = "sweep --cos 0,0.57,0.9"
            outputs[name] = run("sweep", "--cos", "0,0.57,0.9", "--trials", "500", "--n", "1000",
                                "--dim", "16", "--seed", "4", "--out", "sweep.csv")
            outputs[f"{name} csv"] = Path("sweep.csv").read_text(encoding="utf-8")
        finally:
            os.chdir(cwd)
    return outputs


def _relative(base, head) -> float:
    base, head = np.asarray(base, dtype=np.float64), np.asarray(head, dtype=np.float64)
    scale = np.abs(base).max()
    diff = np.abs(head - base).max()
    return float(diff / scale) if scale > 0 else float(diff)


def compare(base: dict, head: dict) -> dict:
    """Which report fields differ by repr, and how far the N=10k fits moved."""
    differing, rmse_rel = {}, 0.0
    for name, b in base["reports"].items():
        h = head["reports"].get(name)
        if h is None:
            differing[name] = ["missing"]
            continue
        fields = [f for f in ("accuracy", "joint", "rmse") if repr(b[f]) != repr(h[f])]
        if fields:
            differing[name] = fields
        for attr, value in b["rmse"].items():
            if attr in h["rmse"]:
                rmse_rel = max(rmse_rel, _relative(value, h["rmse"][attr]))
    training = {}
    for name, b in base["training"].items():
        h = head["training"][name]
        training[name] = {"iterations": [b["iterations"], h["iterations"]],
                          "metric_equal": repr(b["metric"]) == repr(h["metric"]),
                          "weights_rel_diff": _relative(b["weights"], h["weights"]),
                          "intercepts_rel_diff": _relative(b["intercepts"], h["intercepts"])}
    accuracies_equal = not any({"accuracy", "joint", "missing"} & set(f) for f in differing.values())
    cli_differing = [name for name, text in base["cli"].items() if head["cli"].get(name) != text]
    return {"reports": len(base["reports"]), "accuracies_equal": accuracies_equal,
            "reports_differing": differing, "rmse_max_rel_diff": rmse_rel, "training": training,
            "cli_outputs": len(base["cli"]), "cli_differing": cli_differing}


def _without_weights(figures: dict) -> dict:
    training = {name: {k: v for k, v in fit.items() if k not in ("weights", "intercepts")}
                for name, fit in figures["training"].items()}
    return {"reports": figures["reports"], "training": training, "cli": sorted(figures["cli"])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)  # the per-revision child
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(Path(args.measure))))
        return 0

    from bench_pairs import export  # this script's directory is on sys.path

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | BLAS_THREADS
    out, figures = {}, {}
    with tempfile.TemporaryDirectory(prefix="eval-parity-") as tmp:
        for side, rev in (("base", args.base), ("head", args.head)):
            tree = Path(tmp) / side
            tree.mkdir()
            out[side] = {"rev": rev, "sha": export(rev, tree)}
            proc = subprocess.run([sys.executable, __file__, "--measure", str(tree)], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"measuring {rev} failed:\n{proc.stderr}")
            figures[side] = json.loads(proc.stdout)
            out[side].update(_without_weights(figures[side]))
    out["comparison"] = compare(figures["base"], figures["head"])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
