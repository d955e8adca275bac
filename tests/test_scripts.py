"""Each experiment script runs to completion on tiny arguments and writes a
CSV with a header and rows."""
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
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--output", str(out)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
