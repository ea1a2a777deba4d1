"""latentsteer benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload train|steer|generate --seed N --seconds S --trace 0|1

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics,
taken from spans around the calls into each latentsteer module. The full
record (machine facts, per-operation samples, checks, and for a traced run
the spans and the self-time table) is written under .bench_out/.

Exit codes: 0 on a completed run, failed checks included; 2 when the
package under src/ cannot be imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# a run stops starting operations after --seconds, but always runs this many
MIN_OPS = 2


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile, capped at p99, with at least 10 samples beyond it; the max below 20."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    q = min(99.0, 100.0 * (1.0 - 10.0 / n))
    return ordered[int(q / 100.0 * n)], f"p{q:.2f} of {n}"


def blas_threads_in_use():
    """OpenBLAS's own thread count, read from the library numpy loaded; None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    try:
        blas_in_use = blas_threads_in_use()
    except OSError:
        blas_in_use = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads_in_use": blas_in_use,
        "platform": platform.platform(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="latentsteer benchmark")
    p.add_argument("--workload", required=True, choices=["train", "steer", "generate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the harness self-test; not a measurement")
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer) -> dict:
    """Run operations until `seconds` have passed, with `setup_batches`
    batches of set-ups spread evenly over that time, the first before any
    operation.

    The set-ups are spread so that setup_s, like the operation timings, is
    a median over the whole run rather than over its first second. In a
    traced run every set-up and every odd-numbered operation is traced; the
    even-numbered ones run untraced, so the run measures its own tracing
    overhead.
    """
    checks = workload.ctx.checks
    sizes = workload.ctx.sizes

    def traced(op_id):
        return tracer.installed(op_id) if tracer else contextlib.nullcontext()

    setups, traced_wall = [], 0.0

    def setup_batch():
        nonlocal traced_wall
        batch_start = perf_counter()
        while True:  # at least one set-up, then until setup_batch_s has passed
            op_id = f"setup-{len(setups)}"
            checks.begin(op_id)
            with traced(op_id):
                t0 = perf_counter()
                workload.setup()
                setups.append(perf_counter() - t0)
            traced_wall += setups[-1] if tracer else 0.0
            if perf_counter() - batch_start >= sizes.setup_batch_s:
                break

    ops = {True: [], False: []}  # traced -> per-operation seconds
    items = {True: 0, False: 0}
    start, k = perf_counter(), 0
    setup_batch()
    batches = 1
    while k < MIN_OPS or perf_counter() - start < seconds:
        if batches < sizes.setup_batches and perf_counter() - start >= (
                batches * seconds / sizes.setup_batches):
            setup_batch()
            batches += 1
            continue
        is_traced = bool(tracer) and k % 2 == 1
        op_id = f"op-{k}"
        checks.begin(op_id)
        t0 = perf_counter()
        try:
            with traced(op_id) if is_traced else contextlib.nullcontext():
                elapsed, done = workload.op(k)
        except Exception:  # an operation that raises is a failed operation; keep measuring
            checks.check("raised", False, traceback.format_exc(limit=3))
        else:
            ops[is_traced].append(elapsed)
            items[is_traced] += done
            workload.after_op()
        if is_traced:
            traced_wall += perf_counter() - t0
        k += 1
    return {"setups": setups, "ops": ops, "items": items, "traced_wall": traced_wall,
            "measured_s": perf_counter() - start}


def end_to_end_metrics(workload, m: dict) -> dict:
    ops = m["ops"][False]
    tail_value, tail_rule = tail(ops)
    checks = workload.ctx.checks
    checks.begin("quality")  # the closing checks over the whole run are one operation
    quality = workload.quality()
    return {
        "setup_s": (statistics.median(m["setups"]), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "accuracy": (quality["accuracy"], "ratio"),
        "dir_cos_min": (quality["dir_cos_min"], "ratio"),
        "smile_rmse": (quality["smile_rmse"], "value"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": (1.0 - checks.failed / checks.attempted, "ratio"),
    }, {"ops": len(ops), "op_tail_ms": tail_value * 1e3, "op_tail_rule": tail_rule,
        "items_per_s": m["items"][False] / sum(ops), "quality": quality}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # pin BLAS threads before numpy loads: fitted bytes, and so the accuracy
    # metrics, depend on the thread count
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import latentsteer
    except ImportError as exc:
        print(f"error: cannot import latentsteer from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(latentsteer.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: latentsteer imported from {latentsteer.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    try:
        sizes = workloads.TINY if args.tiny else workloads.Sizes()
        ctx = workloads.Context(seed=args.seed, sizes=sizes, workdir=workdir)
        workload = workloads.WORKLOADS[args.workload](ctx)
        tracer = tracing.Tracer() if args.trace else None
        m = measure(workload, args.seconds, tracer)
        e2e, notes = end_to_end_metrics(workload, m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = ctx.checks
    record = {"machine": machine_facts(args), "sizes": vars(sizes), "item": workload.item,
              "setup_s_samples": m["setups"], "op_s_samples": m["ops"][False],
              "measured_s": m["measured_s"], "end_to_end": e2e, **notes,
              "attempted": checks.attempted, "failed": checks.failed,
              "error_rate": checks.failed / checks.attempted, "failures": checks.failures}
    metrics = e2e
    if tracer:
        traced_ops = m["ops"][True]
        overhead = statistics.median(traced_ops) / statistics.median(m["ops"][False]) - 1.0
        table = tracing.self_time_table(tracer, m["traced_wall"])
        table += (f"\ntracing overhead: traced op p50 {statistics.median(traced_ops) * 1e3:.3f} ms"
                  f" vs untraced {e2e['op_p50_ms'][0]:.3f} ms ({overhead:+.1%})\n")
        metrics = tracing.layer_metrics(tracer)
        tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")
        (OUT / f"{stem}.layers.txt").write_text(table, encoding="utf-8")
        record.update(per_layer=metrics, tracing_overhead=overhead,
                      op_s_samples_traced=traced_ops)
        print(table)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
