"""Each experiment script runs to completion on tiny arguments and writes a
CSV with a header and rows; the gate sweep runs tiny pass ranges of each
workload."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# explicit ids keep the test names that runs of the suite are compared by
@pytest.mark.parametrize("script, args", [
    pytest.param("extrapolation_sweep.py", ["--instances", "3", "--samples", "20"],
                 id="extrapolation_sweep.py-args1"),
    pytest.param("tail_bound_margins.py", ["--functions", "3", "--size", "8"],
                 id="tail_bound_margins.py-args2"),
])
def test_script_writes_csv(tmp_path, script, args):
    out = tmp_path / "out.csv"
    _run_script(tmp_path, script, [*args, "--output", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)


def test_gate_sweep_counts_items(tmp_path):
    """Two tails passes (30 items each) at two seeds, every gate met; the
    records digest pins every value the 120 items computed."""
    proc = _run_script(tmp_path, "gate_sweep.py",
                       ["--workload", "tails", "--seeds", "3,7", "--passes", "0-1"])
    assert proc.stdout.splitlines() == [
        "tails: 120 items at seeds 3,7, passes 0-1: 0 failed, records 8a9ef10299d43246"]


@pytest.mark.parametrize("workload, passes, summary", [
    ("oracle", "0-1", "836 items at seeds 3,7, passes 0-1: 0 failed, records 9e41ec6995a2652f"),
    ("extrapolation", "0-0",
     "48 items at seeds 3,7, passes 0-0: 0 failed, records 0d96b04c6c05bbd5"),
])
def test_gate_sweep_pins_opnorm_records(tmp_path, workload, passes, summary):
    """The operator-norm workloads' records digest pins every ascent,
    oracle and minimal-constant value their items compute, to the bit."""
    proc = _run_script(tmp_path, "gate_sweep.py",
                       ["--workload", workload, "--seeds", "3,7", "--passes", passes])
    assert proc.stdout.splitlines() == [f"{workload}: {summary}"]


def _run_script(cwd, script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc
