"""Interleaved base/head benchmark pairs, recorded in one BENCH_<n>.json file.

Run from the repository root:

    python3 tools/bench_pairs.py --out BENCH_6.json [--base HEAD~1] [--head HEAD]
        [--pairs 10] [--seed 601]

Each revision is exported with `git archive` into its own temporary
directory, so both sides run from committed files only and no run writes
into the working tree. The workloads, the run length and each metric's
better direction come from BENCHMARK.json. For pair i of a workload,
`bench/run.py --workload W --seed SEED+i --seconds S --trace 0` runs once on
each side, the base first on even pairs and the head first on odd ones, one
run at a time. The record holds every result line, per metric the medians,
quartiles and per-pair relative changes, both SHAs and the machine facts the
first run wrote. Uses the standard library only and changes nothing under
bench/.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Write the committed tree of rev into an empty directory; return its full SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py exited {proc.returncode} in {tree}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the head's change against the base."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        sign = -1.0 if better.get(name) == "lower" else 1.0
        base_median, head_median = statistics.median(base), statistics.median(head)
        out[name] = {
            "unit": pairs[0]["base"]["metrics"][name]["unit"],
            "better": better.get(name),
            "base_median": base_median,
            "head_median": head_median,
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "median_change": (head_median - base_median) / base_median if base_median else None,
            "pair_changes": [(h - b) / b if b else None for b, h in zip(base, head)],
            "pairs_head_better": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs_tied": sum(h == b for b, h in zip(base, head)),
        }
    return out


def machine_facts(tree: Path, workload: str, seed: int) -> dict:
    facts = json.loads((tree / ".bench_out" / f"{workload}-s{seed}-t0.json").read_text())["machine"]
    facts = {k: v for k, v in facts.items() if k not in ("git_sha", "workload", "seed")}
    facts["machine"] = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    facts["cpu"] = models[0] if models else platform.processor()
    return facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the record to write, e.g. BENCH_6.json")
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    record = {"command": "bench/run.py --workload W --seed S --seconds T --trace 0",
              "seconds": seconds, "order": "base first on even pairs, head first on odd"}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side].mkdir()
            record[side] = {"rev": rev, "sha": export(rev, trees[side])}
        record["workloads"] = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
                pairs.append(pair)
            record.setdefault("machine", machine_facts(trees["base"], workload, args.seed))
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
