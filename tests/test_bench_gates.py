"""The benchmark's correctness gates hold on full passes at development seeds.

``bench/workloads.py`` is imported as it is, and full (non-smoke) passes
0-2 of each workload run in process; a later pass draws other inputs from
``(seed, pass index)``, which a fault may need to show.  Every item checks the certified side of
its results and returns its gate failures (the ascent/oracle gap, a magic
ascent above alpha, the CLI convention table, theorem 1 and 2 passes,
tail bounds); here none may fail and none may raise.  The benchmark's
held-out seed is not used.
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


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", ["extrapolation", "oracle", "tails"])
def test_full_pass_meets_every_gate(workloads, tmp_path, name, seed):
    workload = workloads.WORKLOADS[name](seed, False, workloads.Stats(), tmp_path)
    failures = []
    for index in range(3):
        items = workload.make_pass(index)
        assert items
        for item in items:
            _, failed = item.run()
            failures += failed
    assert not failures, failures
