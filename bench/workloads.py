"""Seeded workloads for the glsx benchmark: inputs, items and correctness gates.

A workload turns ``(seed, pass index)`` into a list of items.  Every pass of
a workload has the same composition (the same number of items of each kind
and size class); only the seeded values change.  An item calls the library,
checks the certified side of its results, and returns ``(record, failures)``:
a JSON-serializable record of the values it produced (digested for the
determinism check) and a list of gate failures (empty when it passed).

The program receives only the generated inputs; everything here calls glsx
through module attributes (``glsx.gls.gls_norm``) so that a traced pass sees
the wrapped functions.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import glsx
import glsx.cli
import glsx.experiments
import glsx.fenchel
import glsx.gls
import glsx.magic
import glsx.mri
import glsx.opnorm

EXPONENTS = (1.0, 1.5, 2.0, 4.0, math.inf)
THRESHOLDS = (math.e, 4.0, 10.0, 100.0)

#: relative ascent/oracle gap allowed by the acceptance criterion
GAP_LIMIT = 1e-3
#: identity-instance lhs/rhs must stay at least this close to equality
SHARPNESS_LIMIT = 0.99
#: sup-kind theorem 2 and theorem 1 must agree to this absolute tolerance
SUP_AGREEMENT = 1e-12
#: normalized grand norm may exceed 1 by at most this much
NORM_TOL = 1e-9
#: above this many points the norm kernel switched to a math.fsum loop when
#: the benchmark was defined; fixed here so the input share stays comparable
FSUM_SIZE = 1000

# Lo Shu (order 3) and the doubly-even order-4 square; seeded symmetries and
# affine maps a*M + b of these are again nonnegative magic squares.
LO_SHU = np.array([[8, 1, 6], [3, 5, 7], [4, 9, 2]], dtype=float)
ORDER4 = np.array([[16, 2, 3, 13], [5, 11, 10, 8], [9, 7, 6, 12], [4, 14, 15, 1]],
                  dtype=float)


@dataclass
class Item:
    label: str
    run: Callable[[], tuple]


@dataclass
class Stats:
    """Run-level record of input shares and gate values across passes."""

    shares: dict = field(default_factory=dict)  # name -> [hits, total]
    extremes: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)  # name -> set of keys

    def share(self, name: str, hit: bool) -> None:
        entry = self.shares.setdefault(name, [0, 0])
        entry[0] += int(bool(hit))
        entry[1] += 1

    def repeat(self, name: str, key) -> None:
        bucket = self.seen.setdefault(name, set())
        self.share(name, key in bucket)
        bucket.add(key)

    def maximum(self, name: str, value: float) -> None:
        self.extremes[name] = max(self.extremes.get(name, -math.inf), value)

    def minimum(self, name: str, value: float) -> None:
        self.extremes[name] = min(self.extremes.get(name, math.inf), value)

    def summary(self) -> dict:
        out = {name: hits / total for name, (hits, total) in sorted(self.shares.items())}
        out.update(sorted(self.extremes.items()))
        return out


def _rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


# ---------------------------------------------------------------------------
# extrapolation: seeded ensembles, theorem 1 and theorem 2 on every instance
# ---------------------------------------------------------------------------

class Extrapolation:
    """Each ensemble is one ``build`` item (identity, magic 3, magic 4,
    scaled random 2x2 and 3x3) followed by one ``verify`` item per instance
    running theorem 1 and theorem 2 (integral and sup kinds)."""

    ENSEMBLES_PER_PASS = 4
    ENSEMBLE_SIZE = 5
    SAMPLES = 1000
    #: seconds of one untraced plus one traced pass on the reference machine
    TRACE_PAIR_S = 8.0

    def __init__(self, seed: int, smoke: bool, stats: Stats, out_dir: Path) -> None:
        self.seed = seed
        self.ensembles = 1 if smoke else self.ENSEMBLES_PER_PASS
        self.stats = stats

    def make_pass(self, index: int) -> list:
        rng = _rng(self.seed, index, 0)
        items = []
        for ens_seed in rng.integers(0, 2 ** 31, size=self.ensembles):
            built: list = []
            items.append(Item("build", functools.partial(self._build, int(ens_seed), built)))
            for k in range(self.ENSEMBLE_SIZE):
                items.append(Item("verify", functools.partial(self._verify, built, k)))
        return items

    def _build(self, ens_seed: int, built: list) -> tuple:
        ensemble = glsx.experiments.build_extrapolation_ensemble(
            count=self.ENSEMBLE_SIZE, seed=ens_seed)
        built.extend(ensemble)
        failures = []
        if len(ensemble) != self.ENSEMBLE_SIZE:
            failures.append(f"ensemble {ens_seed}: {len(ensemble)} instances")
        for inst in ensemble:
            if not inst.cert.witnessed:
                failures.append(f"{inst.name}: certificate not witnessed")
            if not (inst.cbar > 0.0 and math.isfinite(inst.cbar)):
                failures.append(f"{inst.name}: degenerate cbar {inst.cbar}")
            self.stats.repeat("repeated_operator_share",
                              (inst.operator.entries.tobytes(), inst.sigma))
        return [[inst.name, inst.cbar] for inst in ensemble], failures

    def _verify(self, built: list, k: int) -> tuple:
        inst = built[k]
        A, cert = inst.operator, inst.cert
        rep1 = glsx.opnorm.verify_theorem1(A, cert, inst.psi, inst.nu,
                                           samples=self.SAMPLES, seed=inst.seed,
                                           p_points=inst.p_points,
                                           q_points=inst.q_points, cbar=inst.cbar)
        W = glsx.mri.integral_mri_norm(cert.p_interval, s=1.0, points=inst.p_points)
        R = glsx.mri.integral_mri_norm(cert.q_interval, s=1.0, points=inst.q_points)
        rep_int = glsx.mri.verify_theorem2(A, cert, W, R, samples=self.SAMPLES,
                                           seed=inst.seed, cbar=inst.cbar)
        Ws = glsx.mri.sup_mri_norm(inst.psi, glsx.gls.grid_from_points(
            cert.p_interval, inst.p_points, refinement_depth=0))
        Rs = glsx.mri.sup_mri_norm(inst.nu, glsx.gls.grid_from_points(
            cert.q_interval, inst.q_points, refinement_depth=0))
        rep_sup = glsx.mri.verify_theorem2(A, cert, Ws, Rs, samples=self.SAMPLES,
                                           seed=inst.seed, cbar=inst.cbar)
        failures = [f"{inst.name}: {kind} verification failed"
                    for kind, rep in (("theorem1", rep1), ("theorem2-integral", rep_int),
                                      ("theorem2-sup", rep_sup)) if not rep.passed]
        dev = abs(rep_sup.max_lhs_rhs_ratio - rep1.max_lhs_rhs_ratio)
        if rep_sup.passed != rep1.passed or not dev <= SUP_AGREEMENT:
            failures.append(f"{inst.name}: sup-kind theorem 2 deviates from theorem 1 by {dev}")
        if inst.sharpness_witness:
            self.stats.minimum("sharpness_ratio", rep1.max_lhs_rhs_ratio)
            if not rep1.max_lhs_rhs_ratio >= SHARPNESS_LIMIT:
                failures.append(f"{inst.name}: sharpness {rep1.max_lhs_rhs_ratio}")
        record = [inst.name, rep1.max_lhs_rhs_ratio, rep_int.max_lhs_rhs_ratio,
                  rep_sup.max_lhs_rhs_ratio, len(rep1.violations),
                  len(rep_int.violations), len(rep_sup.violations)]
        return record, failures


# ---------------------------------------------------------------------------
# oracle: brute-force oracle tables against the duality ascent, plus magic
# convention tables through the CLI
# ---------------------------------------------------------------------------

class Oracle:
    """Per matrix one ``table`` item (the 5x5 oracle table) and one
    ``ascent`` item per (q, p) pair (one ascent compared with the table);
    per pass one ``magic`` item (a convention table through ``glsx.cli.run``
    and ascents on seeded magic squares).  One ascent per item keeps the
    percentiles inside the ascent latencies instead of between size classes."""

    #: (source size, signed, matrices per pass); half nonnegative, half signed
    CLASSES = ((1, False, 1), (1, True, 1), (2, False, 2), (2, True, 2),
               (3, False, 1), (3, True, 1))
    SMOKE_CLASSES = ((1, False, 1), (1, True, 1), (2, False, 1), (2, True, 1))
    RESOLUTION = 720
    RESTARTS = 32
    MAGIC_PAIRS = 2
    TRACE_PAIR_S = 18.0

    def __init__(self, seed: int, smoke: bool, stats: Stats, out_dir: Path) -> None:
        self.seed = seed
        self.classes = self.SMOKE_CLASSES if smoke else self.CLASSES
        self.stats = stats
        self.out_dir = out_dir
        self.all_pairs = [(q, p) for i, q in enumerate(EXPONENTS)
                          for p in EXPONENTS[i + 1:]]

    def make_pass(self, index: int) -> list:
        rng = _rng(self.seed, index, 1)
        items = []
        for n, signed, count in self.classes:
            cls = f"n{n}-{'signed' if signed else 'nonneg'}"
            for _ in range(count):
                entries = rng.uniform(0.0, 1.0, size=(n, n))
                if signed:
                    signs = rng.choice([-1.0, 1.0], size=(n, n))
                    signs.flat[rng.integers(n * n)] = -1.0  # at least one negative
                    entries *= signs
                restart_seed = int(rng.integers(2 ** 31))
                table: dict = {}
                items.append(Item(f"table-{cls}",
                                  functools.partial(self._table, entries, table)))
                for q in EXPONENTS:
                    for p in EXPONENTS:
                        items.append(Item(f"ascent-{cls}", functools.partial(
                            self._ascent, entries, q, p, restart_seed, table)))
        picks = rng.choice(len(self.all_pairs), size=self.MAGIC_PAIRS, replace=False)
        pairs = [self.all_pairs[i] for i in sorted(picks)]
        squares = [_seeded_square(rng, LO_SHU), _seeded_square(rng, ORDER4)]
        items.append(Item("magic", functools.partial(self._magic, pairs, squares, index)))
        return items

    def _table(self, entries: np.ndarray, table: dict) -> tuple:
        A = glsx.MatrixOperator.on_counting(entries)
        self.stats.share("signed_matrix_share", not A.is_nonnegative())
        values = glsx.opnorm.op_norm_oracle_table(A, EXPONENTS, EXPONENTS,
                                                  resolution=self.RESOLUTION)
        table.update(values)
        failures = [f"oracle {pair} = {v}" for pair, v in values.items()
                    if not (v > 0.0 and math.isfinite(v))]
        return [values[(q, p)] for q in EXPONENTS for p in EXPONENTS], failures

    def _ascent(self, entries: np.ndarray, q: float, p: float, seed: int,
                table: dict) -> tuple:
        A = glsx.MatrixOperator.on_counting(entries)
        lower = glsx.opnorm.op_norm_lower(A, q, p, restarts=self.RESTARTS, seed=seed).value
        oracle = table[(q, p)]
        gap = abs(lower - oracle) / oracle
        self.stats.maximum("ascent_gap_max", gap)
        failures = []
        if not gap <= GAP_LIMIT:
            failures.append(f"ascent/oracle gap {gap:.3e} at q={q}, p={p} "
                            f"for {entries.tolist()}")
        return lower, failures

    def _magic(self, pairs: list, squares: list, index: int) -> tuple:
        failures = []
        stem = self.out_dir / f"magic-{os.getpid()}-{index}"
        spec_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
        spec_path.write_text(json.dumps({"entries": squares[0].tolist()}),
                             encoding="utf-8")
        argv = ["check-super-exact", "--matrix", str(spec_path),
                "--pairs", ",".join(f"{_fmt(q)}:{_fmt(p)}" for q, p in pairs),
                "--output", str(csv_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = glsx.cli.run(argv)
        record: list = []
        if code != 0:
            failures.append(f"check-super-exact exit {code}: {err.getvalue().strip()}")
        else:
            with open(csv_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != 4 * len(pairs):
                failures.append(f"convention table has {len(rows)} rows")
            for row in rows:
                oracle = float(row["oracle"])
                record.append(oracle)
                if not (oracle > 0.0 and math.isfinite(oracle)):
                    failures.append(f"convention table oracle {oracle}")
                # on the counting measure, ||M||_{p->q} = alpha n^(1/q-1/p) for q <= p
                if (row["convention"], row["ordering"]) == ("counting", "p->q") \
                        and row["match"] != "True":
                    failures.append(f"closed form missed: {row}")
        spec_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)

        for entries in squares:
            square = glsx.magic.square_from_spec({"entries": entries.tolist()})
            A = glsx.magic.to_operator(square, "counting")
            # a rigorous upper bound of every q->q norm with q in {1, 2, inf}
            alpha = max(max(math.fsum(r) for r in entries),
                        max(math.fsum(c) for c in entries.T))
            for q in (1.0, 2.0, math.inf):
                value = glsx.opnorm.op_norm_lower(A, q, q, restarts=self.RESTARTS,
                                                  seed=index).value
                record.append(value)
                if not value <= alpha * (1.0 + 1e-12):
                    failures.append(f"magic ascent {value} above alpha {alpha} at q={q}")
        return record, failures


def _fmt(p: float) -> str:
    return "inf" if math.isinf(p) else repr(p)


def _seeded_square(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    square = np.rot90(base, int(rng.integers(4)))
    if rng.random() < 0.5:
        square = square.T
    return rng.uniform(0.5, 2.0) * square + rng.uniform(0.0, 1.0)


# ---------------------------------------------------------------------------
# tails: normalize random functions, then check the conjugate tail bounds
# ---------------------------------------------------------------------------

class Tails:
    """Each item normalizes one function on a probability space (weights
    1/n) to unit grand norm and runs ``tail_bound_check`` at the fixed
    thresholds.  Most functions are small (2-64 points); a fixed minority is
    large, one size drawn from each of equal strata of 1001-4000 points,
    above ``FSUM_SIZE``.  Probability weights keep some tails above zero
    (under counting weights the normalized values never reach t = e, and
    the bound check could not fail)."""

    SMALL_PER_PASS = 24
    LARGE_PER_PASS = 6
    SMALL_SIZES = (2, 64)
    LARGE_SIZES = (1001, 4000)
    TRACE_PAIR_S = 6.0

    def __init__(self, seed: int, smoke: bool, stats: Stats, out_dir: Path) -> None:
        self.seed = seed
        self.small, self.large = (3, 1) if smoke else (self.SMALL_PER_PASS,
                                                       self.LARGE_PER_PASS)
        self.stats = stats
        self.psis = (glsx.make_power(1.0), glsx.make_power(2.0),
                     glsx.make_boundary(3.0, 1.0, 1.0))
        self.grids = tuple(glsx.default_grid(psi) for psi in self.psis)

    def make_pass(self, index: int) -> list:
        rng = _rng(self.seed, index, 2)
        items = []
        for k in range(self.small):
            n = int(rng.integers(self.SMALL_SIZES[0], self.SMALL_SIZES[1] + 1))
            items.append(Item("small", functools.partial(
                self._check, k % 3, rng.standard_normal(n))))
        lo, hi = self.LARGE_SIZES
        width = (hi - lo + 1) / self.large
        for j in range(self.large):
            n = lo + int((j + rng.random()) * width)
            items.append(Item("large", functools.partial(
                self._check, j % 3, rng.standard_normal(n))))
        return items

    def _check(self, which: int, values: np.ndarray) -> tuple:
        psi, grid = self.psis[which], self.grids[which]
        f = glsx.GridFunction(glsx.MeasureSpace.normalized(values.size), values)
        self.stats.share("large_function_share", f.space.size > FSUM_SIZE)
        for t in THRESHOLDS:
            self.stats.repeat("repeated_psi_t_share", (which, t))
        nrm = glsx.gls.gls_norm(f, psi, grid).value
        rep = glsx.fenchel.tail_bound_check(f.scaled(1.0 / nrm), psi, THRESHOLDS, grid)
        failures = [f"tail bound violated at t={r.t}: tail {r.tail} > bound {r.bound}"
                    for r in rep.violations()]
        for r in rep.rows:
            self.stats.share("nonzero_tail_share", r.tail > 0.0)
        if not rep.norm <= 1.0 + NORM_TOL:
            failures.append(f"normalized grand norm {rep.norm}")
        return [nrm, rep.norm, [[r.tail, r.bound] for r in rep.rows]], failures


WORKLOADS = {"extrapolation": Extrapolation, "oracle": Oracle, "tails": Tails}
