"""The benchmark's correctness gates hold on full passes at development seeds.

``bench/workloads.py`` is imported as it is, and full (non-smoke) passes
0-2 of each workload run in process; a later pass draws other inputs from
``(seed, pass index)``, which a fault may need to show, so one later
``oracle`` pass that once failed runs too.  Every item checks the
certified side of its results and returns its gate failures (the
ascent/oracle gap, a magic ascent above alpha, the CLI convention table,
theorem 1 and 2 passes, tail bounds); here none may fail and none may
raise.  The benchmark's held-out seed is not used.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _gate_failures(workloads, tmp_path, name, seed, passes):
    workload = workloads.WORKLOADS[name](seed, False, workloads.Stats(), tmp_path)
    failures = []
    for index in passes:
        items = workload.make_pass(index)
        assert items
        for item in items:
            _, failed = item.run()
            failures += failed
    return failures


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", ["extrapolation", "oracle", "tails"])
def test_full_pass_meets_every_gate(workloads, tmp_path, name, seed):
    failures = _gate_failures(workloads, tmp_path, name, seed, range(3))
    assert not failures, failures


def test_oracle_pass_with_a_missed_basin(workloads, tmp_path):
    # pass 191 at seed 42 holds a signed 3x3 whose q = 4 -> p = 1.5 norm
    # the standard ascent starts miss by 5.2e-3; a timed run at that seed
    # reaches this pass once a pass takes about 0.19 s or less
    failures = _gate_failures(workloads, tmp_path, "oracle", 42, [191])
    assert not failures, failures
