"""Harness self-test: every workload, at tiny sizes, emits every metric of BENCHMARK.json.

Run from the repository root with `python3 -m pytest -q bench/test_smoke.py`.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_failed_check_trips_the_gate(workload, monkeypatch, capsys):
    """A single failed check fails its operation, clears `correct` and moves ok_ratio past its bound."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import run
    import workloads

    real_check, calls = workloads.Checks.check, itertools.count()

    def check(self, name, ok, detail=""):
        return real_check(self, name, ok and next(calls) != 3, detail or "injected")

    monkeypatch.setattr(workloads.Checks, "check", check)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
                     "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "ok_ratio")
    assert 1.0 - result["metrics"]["ok_ratio"]["value"] > bound


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
