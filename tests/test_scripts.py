"""Each experiment script runs to completion on tiny arguments and writes a
CSV with a header and rows; the gate sweep runs a tiny pass range."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("convention_table.py", ["--order", "3", "--pairs", "1:2", "--resolution", "60"]),
    ("extrapolation_sweep.py", ["--instances", "3", "--samples", "20"]),
    ("tail_bound_margins.py", ["--functions", "3", "--size", "8"]),
])
def test_script_writes_csv(tmp_path, script, args):
    out = tmp_path / "out.csv"
    _run_script(tmp_path, script, [*args, "--output", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)


def test_convention_table_is_the_cli_table(tmp_path):
    """The script writes the CSV of ``check-super-exact`` byte for byte."""
    from glsx.cli import run

    script_out, cli_out = tmp_path / "script.csv", tmp_path / "cli.csv"
    args = ["--order", "3", "--pairs", "1:2", "--resolution", "60"]
    _run_script(tmp_path, "convention_table.py", [*args, "--output", str(script_out)])
    assert run(["check-super-exact", *args, "--format", "csv",
                "--output", str(cli_out)]) == 0
    assert script_out.read_bytes() == cli_out.read_bytes()


def test_gate_sweep_counts_items(tmp_path):
    """Two tails passes (30 items each) at two seeds, every gate met."""
    proc = _run_script(tmp_path, "gate_sweep.py",
                       ["--workload", "tails", "--seeds", "3,7", "--passes", "0-1"])
    assert proc.stdout.splitlines() == ["tails: 120 items at seeds 3,7, passes 0-1: 0 failed"]


def _run_script(cwd, script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc
