#!/usr/bin/env python3
"""Benchmark for glsx: one closed-loop client running a seeded workload.

    python3 bench/run.py --workload {extrapolation,oracle,tails} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; glsx is imported from ``src/``.
The client runs items back to back in passes of fixed composition, each
pass with fresh inputs made from ``(seed, pass index)``, until ``--seconds``
is used up.  Every item checks the certified side of its results; a failed
or raising item counts in ``failed`` and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of pass pairs (the same pass once untraced and once with every
listed glsx function wrapped), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_out/``.  The last line of
standard output is the JSON result; the line before it is a JSON record of
the run (digest, input shares, gate values, machine).
"""
import os

# BLAS pinned to one thread before numpy loads; GLSX_THREADS stays as given
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("extrapolation", "oracle", "tails")
SETUP_SAMPLES = 5
#: seed reserved for confirming claims; never used while tuning a change
HELD_OUT_SEED = 271828
#: ROADMAP re-anchor baselines (same machine class, single-threaded BLAS)
ROADMAP_ENSEMBLE_200_S = 33.5
ROADMAP_C5_100_S = 59.3


def _import_glsx():
    """Import glsx from this checkout's ``src`` and the workload module."""
    sys.path.insert(0, str(ROOT / "src"))
    import glsx

    where = Path(glsx.__file__).resolve().parent
    if where != ROOT / "src" / "glsx":
        raise ImportError(f"glsx imported from {where}, not from {ROOT / 'src'}")
    import workloads

    return workloads


@dataclass
class PassResult:
    wall: float
    digest: str
    latencies: list = field(default_factory=list)  # (label, seconds)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def run_pass(workload, index: int, tracer=None) -> PassResult:
    items = workload.make_pass(index)
    result = PassResult(0.0, "")
    records = []

    def body() -> None:
        for item in items:
            start = time.perf_counter()
            try:
                if tracer is None:
                    record, failures = item.run()
                else:
                    record, failures = tracer.call("bench.item", item.run, (), {})
            except Exception as exc:  # an item that raises is a failed item
                traceback.print_exc(file=sys.stderr)
                record, failures = None, [f"{item.label}: {type(exc).__name__}: {exc}"]
            result.latencies.append((item.label, time.perf_counter() - start))
            records.append(record)
            result.attempted += 1
            result.failed += bool(failures)
            result.failures += failures

    start = time.perf_counter()
    if tracer is None:
        body()
    else:
        tracer.call("bench.pass", body, (), {})
    result.wall = time.perf_counter() - start
    payload = json.dumps(records, sort_keys=True).encode()
    result.digest = hashlib.sha256(payload).hexdigest()[:16]
    return result


def quantile(values: list, q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """Highest percentile, up to the 90th, with at least ten items beyond it."""
    return min(0.9, max(0.5, 1.0 - 10.0 / n))


def machine_record() -> dict:
    import numpy

    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             check=True).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        caches = {"L2 cache": "unknown", "L3 cache": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "GLSX_THREADS": os.environ.get("GLSX_THREADS", "unset (program default 1)"),
        **caches,
    }


def setup_probe(args) -> int:
    """Time importing glsx and generating the first pass's inputs."""
    start = time.perf_counter()
    workloads = _import_glsx()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                  workloads.Stats(), OUT_DIR)
    workload.make_pass(0)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def probe_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def roadmap_crosscheck(workload_name: str, latencies: list) -> dict:
    """Scale this run's item times to the ROADMAP re-anchor table's units."""
    by_label: dict = {}
    for label, seconds in latencies:
        by_label.setdefault(label, []).append(seconds)
    med = {label: statistics.median(xs) for label, xs in by_label.items()}
    if workload_name == "extrapolation" and "build" in med:
        per_200 = med["build"] / 5 * 200
        return {"ensemble_build_s_per_200": per_200,
                "roadmap_s_per_200": ROADMAP_ENSEMBLE_200_S,
                "ratio": per_200 / ROADMAP_ENSEMBLE_200_S}
    if workload_name == "oracle":
        # c5: nonnegative matrices of size 1-3, one oracle table plus 25 ascents each
        per_matrix = [med[f"table-n{n}-nonneg"] + 25 * med[f"ascent-n{n}-nonneg"]
                      for n in (1, 2, 3) if f"table-n{n}-nonneg" in med]
        if len(per_matrix) == 3:
            per_100 = 100 * statistics.mean(per_matrix)
            return {"c5_s_per_100": per_100, "roadmap_s_per_100": ROADMAP_C5_100_S,
                    "ratio": per_100 / ROADMAP_C5_100_S}
    return {}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny passes, one pass per run (for the smoke test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_traced(args, workload, record: dict) -> tuple:
    """Fixed pass pairs, each pass once untraced and once traced."""
    import tracer as tracing

    tracer = tracing.Tracer()
    pairs = 1 if args.smoke else max(1, int(args.seconds // workload.TRACE_PAIR_S))
    passes, untraced, traced, failures = [], [], [], []
    for index in range(pairs):
        # alternate which twin runs first, so warm caches favour neither
        for on in ((False, True) if index % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                res = run_pass(workload, index, tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
            (traced if on else untraced).append(res)
            passes.append(res)
        if traced[-1].digest != untraced[-1].digest:
            failures.append(f"pass {index}: tracing changed the results")
    metrics = tracer.metrics()
    wall_u = statistics.median(r.wall for r in untraced)
    overhead = statistics.median(t.wall - u.wall for t, u in zip(traced, untraced))
    metrics.update({"trace.passes": pairs, "trace.wall_untraced_s": wall_u,
                    "trace.wall_traced_s": statistics.median(r.wall for r in traced),
                    "trace.overhead_s": overhead, "trace.overhead_frac": overhead / wall_u})
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    layers = {k[len("layer."):-len(".self_s")]: v for k, v in metrics.items()
              if k.startswith("layer.")}
    total = sum(layers.values())
    record["layer_self_share"] = {k: v / total for k, v in
                                  sorted(layers.items(), key=lambda kv: -kv[1])}
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    units = {name: tracing.metric_unit(name) for name in tracing.metric_names()}
    return passes, metrics, units, failures


def run_untraced(args, workload, record: dict) -> tuple:
    """Passes until --seconds is used up; the end-to-end metrics."""
    setup_samples = [probe_setup_s(args) for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in passes)
        if args.smoke or elapsed + 0.5 * typical >= args.seconds:
            break
    labeled = [x for r in passes for x in r.latencies]
    latencies = [s for _, s in labeled]
    level = tail_level(len(latencies))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.wall for r in passes),
        "item_p50_ms": 1e3 * quantile(latencies, 0.5),
        "item_p90_ms": 1e3 * quantile(latencies, level),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
             "peak_rss_mb": "MB"}
    record.update({"items": len(latencies), "tail_level": level,
                   "items_beyond_tail": sum(x > metrics["item_p90_ms"] / 1e3
                                            for x in latencies),
                   "setup_samples_s": setup_samples,
                   "roadmap_crosscheck": roadmap_crosscheck(args.workload, labeled)})
    return passes, metrics, units, []


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    try:
        workloads = _import_glsx()
        OUT_DIR.mkdir(exist_ok=True)
        stats = workloads.Stats()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, stats, OUT_DIR)
        record = {"workload": args.workload, "seed": args.seed,
                  "held_out_seed": HELD_OUT_SEED}
        passes, metrics, units, failures = (run_traced if args.trace else run_untraced)(
            args, workload, record)
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [f for r in passes for f in r.failures] + failures
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = not failures and all(math.isfinite(v) for v in metrics.values())
    record.update({"digest": passes[0].digest, "passes": len(passes),
                   "pass_walls_s": [round(r.wall, 4) for r in passes],
                   "inputs_and_gates": stats.summary(), "machine": machine_record()})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": sum(r.attempted for r in passes),
                      "failed": sum(r.failed for r in passes),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
