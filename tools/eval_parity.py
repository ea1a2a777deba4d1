"""Eval and training parity of two revisions, printed as one JSON document.

Run from the repository root:

    python3 tools/eval_parity.py [--base HEAD~1] [--head HEAD]

Each revision is exported with `git archive` into its own temporary
directory, as tools/bench_pairs.py does, and measured in a fresh process
with one BLAS thread on the bench world (bench/workloads.py, seed 57) with
training seed 3:

- the weights and intercepts of an N=2,000 bundle (the set-up bundle of the
  `steer` and `generate` workloads), and 22 eval reports of it, 2,000
  trials each: eval seeds
  {1, 2, 99} x rounds {1, 3}, the three other sign_convention x
  continuous_calibration pairs at seed 1, and seeds 2**32 + 1 and 2**64 + 1
  at rounds 1, for both evals;
- run_training at N=10,000, capped at 1,000 Newton steps: per model the
  held-out metric, iterations, final loss, max |grad|, weights and
  intercepts;
- the CLI's output, 39 texts and files: the text and the `--out-csv` file
  of `eval --mode latent|end2end` on the N=2,000 bundle (seed 1, rounds 1
  and 3) and of `eval --mode cosine` on it, the text and CSV of a small
  `sweep`, and the text and both PGMs of repeated in-process
  `generate --dump-image` requests. The requests run three times over: on
  the N=2,000 bundle, on the world's ground-truth bundle written over the
  same file, and on the N=2,000 bundle written back, so a loader that
  served a stale bundle would show;
- the sha256 of the `save_bundle` file of the bundles trained at N=2,000 and
  N=10,000 (as above), once under each of 1 and 2 OpenBLAS threads, each
  thread count in a fresh process of its own. On a 2-core machine one
  thread lets `run_training` fit concurrently and two make it fit serially,
  so both fit paths are hashed.

The output holds both revisions' figures (weights and CLI output left out)
and their comparison: the report fields that differ by repr, the largest
relative RMSE difference, the largest accuracy difference in standard errors
(`accuracy_max_z`), per model of the N=10k fit whether the held-out metric is
equal by repr and the largest relative weight and intercept differences, the
same two differences per model of the N=2,000 bundle (`setup_fits`), so a
change that moves its hashes shows how far, and the CLI
outputs that differ byte for byte. A PGM whose attribute blocks are equal
and whose texture block (the last, square one, which hashes the bytes of
the latent) differs is listed apart, under `cli_texture_only`: its latent
moved in its last bits at most. A CSV with the same rows and fields that
differs only in numeric cells is listed apart as well, under
`cli_numbers_only`, with the largest relative difference of its cells. Every
bundle hash that differs is listed under `bundles_differing`, as
"<threads> threads N=<n>". Uses the standard library and numpy, and changes
nothing under bench/.

A change that keeps the eval's random stream should read no report field
differing. One that changes the stream can only be compared statistically:
each accuracy is a mean of independent trials, so |z| <= 4 over the 22
reports is the gate, with the fits and the `generate` outputs still equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HASH_THREADS = (1, 2)  # the BLAS thread counts the bundles are hashed under
HASH_SAMPLES = (2000, 10_000)
CSV_SEPARATOR = re.compile(r"(,|\r\n|\n)")  # split on, and kept, so a moved separator differs
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _number(x):
    """A float for JSON: None for NaN, which a regressor's loss and gradient are."""
    return None if x is None or math.isnan(x) else float(x)


def _bench_training(tree: Path):
    """The bench world and the training config, from the package and bench/ in tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from latentsteer import TrainingConfig, build_world
    from workloads import world_config

    return build_world(world_config()), TrainingConfig(epochs=1000, seed=3)


def measure(tree: Path) -> dict:
    """The reports and the N=10k training figures of the package in tree/src."""
    world, cfg = _bench_training(tree)
    from latentsteer import run_training

    bundle = run_training(world, 2000, cfg)
    setup = {name: {"weights": model.weights.tolist(), "intercepts": model.intercepts.tolist()}
             for name, model in bundle.models.items()}
    reports = eval_reports(world, bundle, 2000)
    big = run_training(world, 10_000, cfg)
    training = {}
    for name, model in big.models.items():
        meta = model.training_meta
        training[name] = {"metric": big.provenance.metrics[name], "iterations": meta.epochs_run,
                          "final_loss": _number(meta.final_loss),
                          "grad_norm": _number(meta.grad_norm),
                          "weights": model.weights.tolist(),
                          "intercepts": model.intercepts.tolist()}
    return {"reports": reports, "training": training, "setup": setup,
            "cli": cli_outputs(world, bundle)}


def bundle_hashes(tree: Path) -> dict:
    """sha256 of the saved bundles trained at each of HASH_SAMPLES, by sample count.

    The training is measure()'s, under the BLAS thread count of this process.
    """
    world, cfg = _bench_training(tree)
    from latentsteer import persist, run_training

    hashes = {}
    with tempfile.TemporaryDirectory(prefix="eval-parity-bundle-") as tmp:
        path = Path(tmp) / "bundle.json"
        for n in HASH_SAMPLES:
            persist.save_bundle(run_training(world, n, cfg), path)
            hashes[str(n)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def eval_reports(world, bundle, trials: int) -> dict:
    """Accuracies, joint accuracy and RMSEs of both evals under every eval setting, by name.

    Seeds 2**32 + 1 and 2**64 + 1 need two and three 32-bit words of entropy.
    """
    from latentsteer import DirectorConfig, EvalConfig, eval_end_to_end, eval_latent_modification

    configs = [(seed, rounds, DirectorConfig()) for seed in (1, 2, 99) for rounds in (1, 3)]
    configs += [(1, 1, DirectorConfig(sign_convention=sc, continuous_calibration=cc))
                for sc, cc in [("corrected", "paper_literal"), ("paper_literal", "calibrated"),
                               ("paper_literal", "paper_literal")]]
    configs += [(seed, 1, DirectorConfig()) for seed in (2**32 + 1, 2**64 + 1)]
    reports = {}
    for seed, rounds, director in configs:
        for ev in (eval_latent_modification, eval_end_to_end):
            r = ev(bundle, world, trials, EvalConfig(seed=seed, director=director, rounds=rounds))
            name = (f"{ev.__name__} seed={seed} rounds={rounds} "
                    f"{director.sign_convention}/{director.continuous_calibration}")
            reports[name] = {"trials": r.trials, "accuracy": r.accuracy,
                             "joint": r.joint_discrete_accuracy, "rmse": r.rmse}
    return reports


def cli_outputs(world, bundle) -> dict:
    """Standard output and written files of CLI evals, a sweep and generate requests.

    They run in a scratch directory and name their files relative to it, so
    the text that names them is the same on every run.
    """
    from latentsteer import cli, ground_truth_bundle, persist

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
            outputs["eval --mode cosine"] = run("eval", "--bundle", "bundle.json", "--world",
                                                "world.json", "--mode", "cosine",
                                                "--out-csv", "cosine.csv")
            outputs["eval --mode cosine csv"] = Path("cosine.csv").read_text(encoding="utf-8")
            name = "sweep --cos 0,0.57,0.9"
            outputs[name] = run("sweep", "--cos", "0,0.57,0.9", "--trials", "500", "--n", "1000",
                                "--dim", "16", "--seed", "4", "--out", "sweep.csv")
            outputs[f"{name} csv"] = Path("sweep.csv").read_text(encoding="utf-8")
            for phase, steered in enumerate((bundle, ground_truth_bundle(world), bundle)):
                persist.save_bundle(steered, "bundle.json")
                for i, cond in enumerate(_conditions(bundle.schema)):
                    shutil.rmtree("images", ignore_errors=True)
                    name = f"generate phase {phase} request {i}"
                    outputs[name] = run("generate", "--bundle", "bundle.json", "--world",
                                        "world.json", "--cond", cond, "--seed", str(i),
                                        "--dump-image", "images")
                    for image in ("before.pgm", "after.pgm"):
                        outputs[f"{name} {image}"] = Path("images", image).read_bytes().decode()
        finally:
            os.chdir(cwd)
    return outputs


def _conditions(schema, n: int = 3) -> list[str]:
    """n conditioning strings, each naming every attribute with a different target."""
    return [",".join(f"{a.name}={a.classes[i % len(a.classes)]}" if a.is_discrete
                     else f"{a.name}={a.lo + (a.hi - a.lo) * (i + 1) / (n + 1)}" for a in schema)
            for i in range(n)]


def _relative(base, head) -> float:
    base, head = np.asarray(base, dtype=np.float64), np.asarray(head, dtype=np.float64)
    scale = np.abs(base).max()
    diff = np.abs(head - base).max()
    return float(diff / scale) if scale > 0 else float(diff)


def _fit_differences(base: dict, head: dict) -> dict:
    """The largest relative weight and intercept differences of two fits of one model."""
    return {"weights_rel_diff": _relative(base["weights"], head["weights"]),
            "intercepts_rel_diff": _relative(base["intercepts"], head["intercepts"])}


def _z(base: float, head: float, trials: int) -> float:
    """|head - base| in standard errors of the difference of two accuracies over `trials` each."""
    se = math.sqrt((base * (1 - base) + head * (1 - head)) / trials)
    return abs(head - base) / se if se else (0.0 if head == base else math.inf)


def _attribute_blocks(pgm: str) -> list[list[str]]:
    """The pixel rows of a P2 image without its texture block, the last height-wide columns."""
    _, size, _, *rows = pgm.splitlines()
    width, height = map(int, size.split())
    return [row.split()[:width - height] for row in rows]


def _numbers_only(base: str, head: str) -> float | None:
    """The largest relative difference of two CSV texts that differ only in numeric cells, or
    None where they differ anywhere else."""
    cells = [CSV_SEPARATOR.split(text) for text in (base, head)]
    if len(cells[0]) != len(cells[1]):
        return None
    largest = 0.0
    for b, h in zip(*cells):
        if b != h:
            if not (NUMBER.fullmatch(b) and NUMBER.fullmatch(h)):
                return None
            largest = max(largest, _relative(float(b), float(h)))
    return largest


def compare(base: dict, head: dict) -> dict:
    """Which report fields differ by repr, and how far the accuracies and the fits moved."""
    differing, rmse_rel, z_max = {}, 0.0, 0.0
    for name, b in base["reports"].items():
        h = head["reports"].get(name)
        if h is None:
            differing[name] = ["missing"]
            continue
        fields = [f for f in ("accuracy", "joint", "rmse") if repr(b[f]) != repr(h[f])]
        if fields:
            differing[name] = fields
        pairs = [(value, h["accuracy"][attr]) for attr, value in b["accuracy"].items()
                 if attr in h["accuracy"]]
        if b["joint"] is not None and h["joint"] is not None:
            pairs.append((b["joint"], h["joint"]))
        z_max = max([z_max, *(_z(value, other, b["trials"]) for value, other in pairs)])
        for attr, value in b["rmse"].items():
            if attr in h["rmse"]:
                rmse_rel = max(rmse_rel, _relative(value, h["rmse"][attr]))
    training = {}
    for name, b in base["training"].items():
        h = head["training"][name]
        training[name] = {"iterations": [b["iterations"], h["iterations"]],
                          "metric_equal": repr(b["metric"]) == repr(h["metric"]),
                          **_fit_differences(b, h)}
    accuracies_equal = not any({"accuracy", "joint", "missing"} & set(f) for f in differing.values())
    cli_differing, texture_only, numbers_only = [], [], {}
    for name, text in base["cli"].items():
        other = head["cli"].get(name)
        if other == text:
            continue
        if other is None:
            cli_differing.append(name)
        elif name.endswith(".pgm") and _attribute_blocks(other) == _attribute_blocks(text):
            texture_only.append(name)
        elif name.endswith(" csv") and (largest := _numbers_only(text, other)) is not None:
            numbers_only[name] = largest
        else:
            cli_differing.append(name)
    return {"reports": len(base["reports"]), "accuracies_equal": accuracies_equal,
            "reports_differing": differing, "rmse_max_rel_diff": rmse_rel,
            "accuracy_max_z": z_max, "training": training,
            "setup_fits": {name: _fit_differences(b, head["setup"][name])
                           for name, b in base["setup"].items()},
            "cli_outputs": len(base["cli"]), "cli_differing": cli_differing,
            "cli_texture_only": texture_only, "cli_numbers_only": numbers_only,
            "bundles_differing": [f"{threads} threads N={n}"
                                  for threads, hashes in base["bundle_sha256"].items()
                                  for n, sha in hashes.items()
                                  if head["bundle_sha256"].get(threads, {}).get(n) != sha]}


def _without_weights(figures: dict) -> dict:
    training = {name: {k: v for k, v in fit.items() if k not in ("weights", "intercepts")}
                for name, fit in figures["training"].items()}
    return {"reports": figures["reports"], "training": training, "cli": sorted(figures["cli"]),
            "bundle_sha256": figures["bundle_sha256"]}


def _child(rev: str, mode: str, tree: Path, threads: int) -> dict:
    """The JSON that this script prints in mode for tree, run in a fresh process under threads
    BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env |= {v: str(threads) for v in BLAS_VARIABLES}
    proc = subprocess.run([sys.executable, __file__, mode, str(tree)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} {rev} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    # the per-revision children
    p.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)
    p.add_argument("--hash-bundles", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(Path(args.measure))))
        return 0
    if args.hash_bundles:
        print(json.dumps(bundle_hashes(Path(args.hash_bundles))))
        return 0

    from bench_pairs import export  # this script's directory is on sys.path

    out, figures = {}, {}
    with tempfile.TemporaryDirectory(prefix="eval-parity-") as tmp:
        for side, rev in (("base", args.base), ("head", args.head)):
            tree = Path(tmp) / side
            tree.mkdir()
            out[side] = {"rev": rev, "sha": export(rev, tree)}
            figures[side] = _child(rev, "--measure", tree, 1)
            figures[side]["bundle_sha256"] = {
                str(threads): _child(rev, "--hash-bundles", tree, threads)
                for threads in HASH_THREADS}
            out[side].update(_without_weights(figures[side]))
    out["comparison"] = compare(figures["base"], figures["head"])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
