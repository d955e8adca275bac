"""Smoke test for the benchmark: tiny runs of every workload.

    python -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the results digest repeats across runs and under GLSX_THREADS=2, that
traced counts repeat exactly, and that the command fails without glsx.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, env=None, root: Path = ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600,
                          env={**os.environ, **(env or {})})


def _result(workload: str, trace: int, env=None):
    proc = _run(workload, trace, env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return record, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_emit_metrics_and_repeat_digest(workload):
    record, result = _result(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    again, _ = _result(workload, 0)
    threaded, _ = _result(workload, 0, {"GLSX_THREADS": "2"})
    assert record["digest"] == again["digest"] == threaded["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_metrics_and_repeat_counts(workload):
    first_record, first = _result(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    _, second = _result(workload, 1)
    # counts and the shares derived from them must repeat exactly
    for name, unit in want.items():
        if unit in ("count", "ratio") and not name.startswith("trace.overhead"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (ROOT / first_record["spans_file"]).stat().st_size > 0


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(WORKLOADS[0], 0, root=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
