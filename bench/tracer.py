"""Span tracer that wraps public glsx functions from outside the package.

``Tracer.install`` replaces each traced function in every ``glsx.*``
namespace that binds it (methods are replaced on their class) with a
wrapper that records a span ``(id, parent, name, start, end)`` in memory
and updates counters derived from the call's arguments and result.
``Tracer.uninstall`` restores the originals, so untraced passes run the
unmodified program.  Self time is computed afterwards as a span's duration
minus the part of it covered by its child spans.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _operator_key(A) -> tuple:
    return (A.entries.shape, A.entries.tobytes(), A.source.weights.tobytes(),
            A.target.weights.tobytes())


def _psi_key(psi) -> str:
    return json.dumps(psi.to_spec(), sort_keys=True, default=repr) + repr(psi.domain.as_tuple())


def _grid_key(grid):
    if grid is None:
        return None
    return (grid.points, grid.refinement_depth, grid.include_infinity)


# ---------------------------------------------------------------------------
# per-function hooks: (tracer, name, bound arguments, result) -> None
# ---------------------------------------------------------------------------

def _hook_minimal_constant(tr, name, a, result) -> None:
    A = a["A"]
    n_pairs = len(list(a["p_grid"])) * len(list(a["q_grid"]))
    starts = 1 + A.source.size + int(a["samples"])
    tr.add(name + ".columns", n_pairs * starts if A.entries.any() else 0)
    key = _digest(*_operator_key(A), float(a["sigma"]),
                  tuple(sorted(float(p) for p in a["p_grid"])),
                  tuple(sorted(float(q) for q in a["q_grid"])))
    tr.seen(name + ".repeat_frac", key)


def _hook_check_sigma_condition(tr, name, a, result) -> None:
    tr.add(name + ".retries", 0 if result.holds else 1)


def _hook_oracle_table(tr, name, a, result) -> None:
    A = a["A"]
    n = A.source.size
    if not A.entries.any():
        tr.add(name + ".directions", 0)
        return
    patterns = 1 if A.is_nonnegative() else 2 ** (n - 1)
    tr.add(name + ".directions", int(a["resolution"]) ** (n - 1) * patterns)


def _hook_gls_norm(tr, name, a, result) -> None:
    f = a["f"]
    key = _digest(f.values.tobytes(), f.space.weights.tobytes(),
                  _psi_key(a["psi"]), _grid_key(a["grid"]))
    tr.seen(name + ".repeat_frac", key)


def _hook_young_fenchel(tr, name, a, result) -> None:
    key = _digest(_psi_key(a["psi"]), float(a["v"]), _grid_key(a["grid"]))
    tr.seen(name + ".repeat_frac", key)
    tr.add(name + ".extends", 1 if result.endpoint_flag else 0)


def _fast_hook_lp_norm_table(tr, name, args, kwargs) -> None:
    # hot path (tens of thousands of calls per pass): no signature binding
    values = args[0] if args else kwargs["values"]
    ps = args[2] if len(args) > 2 else kwargs["ps"]
    shape = np.shape(values)
    rows, points = (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])
    tr.add(name + ".elems", rows * points * int(np.size(ps)))


#: (module, attribute, metric prefix, hook).  The metric prefix is
#: ``<layer>.<function>``; ``glsx._parallel`` reports as layer ``parallel``
#: because metric names must start with a letter or digit.
TARGETS = (
    ("glsx.measure", "lp_norm_table", "measure.lp_norm_table", None),
    ("glsx.measure", "lp_norm", "measure.lp_norm", None),
    ("glsx.measure", "tail_function", "measure.tail_function", None),
    ("glsx.genfun", "GeneratingFunction.eval", "genfun.GeneratingFunction.eval", None),
    ("glsx.genfun", "GeneratingFunction.eval_array",
     "genfun.GeneratingFunction.eval_array", None),
    ("glsx.gls", "gls_norm", "gls.gls_norm", _hook_gls_norm),
    ("glsx.gls", "sup_over_grid", "gls.sup_over_grid", None),
    ("glsx.gls", "fundamental_function", "gls.fundamental_function", None),
    ("glsx.fenchel", "young_fenchel", "fenchel.young_fenchel", _hook_young_fenchel),
    ("glsx.fenchel", "tail_bound_check", "fenchel.tail_bound_check", None),
    ("glsx.opnorm", "minimal_constant", "opnorm.minimal_constant",
     _hook_minimal_constant),
    ("glsx.opnorm", "check_sigma_condition", "opnorm.check_sigma_condition",
     _hook_check_sigma_condition),
    ("glsx.opnorm", "verify_theorem1", "opnorm.verify_theorem1", None),
    ("glsx.opnorm", "op_norm_lower", "opnorm.op_norm_lower", None),
    ("glsx.opnorm", "op_norm_oracle_table", "opnorm.op_norm_oracle_table",
     _hook_oracle_table),
    ("glsx.opnorm", "op_norm_oracle", "opnorm.op_norm_oracle", None),
    ("glsx.magic", "check_super_exact", "magic.check_super_exact", None),
    ("glsx.mri", "verify_theorem2", "mri.verify_theorem2", None),
    ("glsx.experiments", "build_extrapolation_ensemble",
     "experiments.build_extrapolation_ensemble", None),
    ("glsx.cli", "run", "cli.run", None),
    ("glsx._parallel", "thread_map", "parallel.thread_map", None),
)

LAYERS = ("measure", "genfun", "gls", "fenchel", "opnorm", "magic", "mri",
          "experiments", "cli", "parallel")

#: counters reported as a share of the function's calls
_FRACTIONS = {
    "opnorm.check_sigma_condition.retry_frac": "opnorm.check_sigma_condition.retries",
    "fenchel.young_fenchel.extend_frac": "fenchel.young_fenchel.extends",
}
#: extra counters reported as plain counts
_COUNTS = ("opnorm.minimal_constant.columns", "opnorm.op_norm_oracle_table.directions",
           "measure.lp_norm_table.elems", "parallel.thread_map.items")
#: share of calls whose inputs an earlier traced call already had
_REPEATS = ("opnorm.minimal_constant.repeat_frac", "gls.gls_norm.repeat_frac",
            "fenchel.young_fenchel.repeat_frac")


def metric_names() -> list:
    """Every per-layer metric name a traced run emits."""
    names = []
    for _, _, prefix, _ in TARGETS:
        names += [prefix + ".calls", prefix + ".s", prefix + ".self_s"]
    names += list(_COUNTS) + list(_REPEATS) + list(_FRACTIONS)
    names += [f"layer.{layer}.self_s" for layer in LAYERS + ("bench",)]
    names += ["trace.passes", "trace.spans", "trace.wall_untraced_s",
              "trace.wall_traced_s", "trace.overhead_s", "trace.overhead_frac"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


class Tracer:
    """Holds spans and counters in memory; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._seen: dict = defaultdict(set)
        self._repeats: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    def seen(self, metric: str, key) -> None:
        with self._lock:
            bucket = self._seen[metric]
            if key in bucket:
                self._repeats[metric] += 1
            else:
                bucket.add(key)

    def call(self, name: str, fn, args, kwargs, mapped: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span recorded under ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, mapped))

    # -- installation ------------------------------------------------------
    def _wrapper(self, name: str, fn, hook):
        tracer = self
        if name == "parallel.thread_map":
            return self._thread_map_wrapper(name, fn)

        if name == "measure.lp_norm_table":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, args, kwargs)
                _fast_hook_lp_norm_table(tracer, name, args, kwargs)
                return result
            return wrapper

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
            return wrapper

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, name, bound.arguments, result)
            return result
        return wrapper

    def _thread_map_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(map_fn, items):
            items = list(items)
            stack = tracer._stack()
            # work handed to thread_map belongs to the function that called it
            owner = stack[-1][1] if stack else name

            def body():
                parent = tracer._stack()[-1]  # the thread_map span itself

                def adopted(x):
                    # a pool thread starts with an empty stack: give its spans
                    # the thread_map span as parent
                    worker = tracer._stack()
                    fresh = not worker
                    if fresh:
                        worker.append(parent)
                    try:
                        return tracer.call(owner, map_fn, (x,), {}, mapped=True)
                    finally:
                        if fresh:
                            worker.pop()

                return fn(adopted, items)

            result = tracer.call(name, body, (), {})
            tracer.add(name + ".items", len(items))
            return result
        return wrapper

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "glsx" or k.startswith("glsx."))]
        for mod_name, attr, name, hook in TARGETS:
            # a function that a later version renames or removes is skipped
            # and reports zero calls, so the benchmark keeps running
            module = sys.modules.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._patch(cls, meth, original, self._wrapper(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, obj, attr, original, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    # -- reporting ---------------------------------------------------------
    def self_times(self):
        """Yield ``(name, mapped, duration, self time)`` for every span."""
        children = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        for sid, _, name, start, end, mapped in self.spans:
            covered = 0.0
            lo = hi = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            yield name, mapped, end - start, end - start - covered

    def metrics(self) -> dict:
        """Per-layer metrics over every traced call recorded so far."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        layer_self = defaultdict(float)
        for name, mapped, dur, self_s in self.self_times():
            if not mapped:  # a mapped call adds only to its owner's self time
                calls[name] += 1
                incl[name] += dur
            own[name] += self_s
            layer_self[name.split(".")[0]] += self_s
        out = {}
        for _, _, prefix, _ in TARGETS:
            out[prefix + ".calls"] = calls[prefix]
            out[prefix + ".s"] = incl[prefix]
            out[prefix + ".self_s"] = own[prefix]
        for key in _COUNTS:
            out[key] = self.counters[key]
        for metric in _REPEATS:
            n = calls[metric.rsplit(".", 1)[0]]
            out[metric] = self._repeats[metric] / n if n else 0.0
        for metric, counter in _FRACTIONS.items():
            n = calls[metric.rsplit(".", 1)[0]]
            out[metric] = self.counters[counter] / n if n else 0.0
        for layer in LAYERS + ("bench",):
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Write one JSON array ``[id, parent, name, start, end, mapped]`` per
        line; ``mapped`` spans are calls thread_map made on behalf of the
        function ``name``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
