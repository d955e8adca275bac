#!/usr/bin/env python3
"""Run one benchmark workload's items and correctness gates over a range of
passes at the given seeds, without timing.

    PYTHONPATH=src python scripts/gate_sweep.py --workload oracle \
        --seeds 7,271828 --passes 0-299

``bench/workloads.py`` is imported as it is.  A timed benchmark run covers
only as many passes as its speed allows, so this sweep reaches the passes a
faster or slower build would run.  Each failing gate, or item that raises,
is printed as ``seed, pass, item: message``; the exit code is 1 if any
item failed and 0 otherwise.  The summary line ends with the digest of
every item record the sweep ran (``None`` for an item that raised), in
order, hashed as ``bench/run.py`` hashes a pass: one seed and one pass give
that pass's ``digest``, and two builds that agree on it agree on every
record of the range.
"""
import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def pass_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("extrapolation", "oracle", "tails"))
    ap.add_argument("--seeds", required=True,
                    help="comma-separated workload seeds, e.g. 7,271828")
    ap.add_argument("--passes", default="0",
                    help="pass index or inclusive range, e.g. 0-299")
    args = ap.parse_args()

    workloads = load_workloads()
    seeds = [int(tok) for tok in args.seeds.split(",")]
    failed = 0
    records = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in seeds:
            workload = workloads.WORKLOADS[args.workload](
                seed, False, workloads.Stats(), Path(out_dir))
            for index in pass_range(args.passes):
                for item in workload.make_pass(index):
                    try:
                        record, failures = item.run()
                    except Exception as exc:  # an item that raises fails
                        record, failures = None, [f"{type(exc).__name__}: {exc}"]
                    records.append(record)
                    failed += bool(failures)
                    for message in failures:
                        print(f"{seed}, {index}, {item.label}: {message}", flush=True)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]
    print(f"{args.workload}: {len(records)} items at seeds {args.seeds}, passes "
          f"{args.passes}: {failed} failed, records {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
