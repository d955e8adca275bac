"""Grand norms: suprema over the exponent on explicit grids.

Every supremum over a continuum of exponents is computed as a maximum over
an explicit grid followed by golden-section refinement (Kiefer 1953) inside
the brackets around the two best grid points.  The result is therefore
always a LOWER bound of the true supremum.  When the discrete maximum sits
on the last grid point before the (excluded or truncated) right endpoint,
the result carries an ``endpoint_flag``: the true supremum may keep growing
toward the boundary and the reported value must not be trusted as a
ceiling.

Objectives are list functions: they map a list of exponents to the list of
their values, so one call serves every bracket.  The two brackets are
refined in lockstep, one objective call per golden step.  A candidate
replaces the incumbent when its value is strictly larger, or equal at a
smaller exponent; this is a total order, so the result does not depend on
which bracket offered a candidate first.

``gls_norm`` computes the Lp profile only at the grid points that could be
the grid argmax or the second bracket centre; ``_grid_ratios`` states why
the points it skips cannot be either, so every value comes out as from a
full pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .genfun import ExponentInterval, GeneratingFunction
from .measure import (INFINITY, GridFunction, _log_stage, _root_stage,
                      lp_norm_table)

#: truncation point for grids on intervals with b = inf
P_MAX = 1000.0
DEFAULT_POINTS = 256
DEFAULT_REFINEMENT = 40

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: relative widening of the chord bound in ``_grid_ratios``.  Under its
#: guard every rounding in the kernel is relative: exponent products below
#: 745 in magnitude, pairwise sums and roots keep a norm within about 1e-13
#: of its exact value, and the chord arithmetic on logs of that size adds
#: about as much.  1e-9 leaves four orders of margin.
_CHORD_SLACK = 1e-9
#: evenly spaced grid indices (first and last included) of the first pass
_FIRST_PASS = 17
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class PGrid:
    """Evaluation grid for suprema over the exponent.

    ``points`` are finite, strictly increasing exponents inside
    ``[interval.a, interval.b)``; ``include_infinity`` appends the INFINITY
    exponent as an explicit extra evaluation point.  ``refinement_depth``
    is the number of golden-section steps run inside the bracket around a
    discrete argmax (0 disables refinement).
    """

    interval: ExponentInterval
    points: tuple
    refinement_depth: int = DEFAULT_REFINEMENT
    include_infinity: bool = False

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("PGrid requires at least one finite point")
        arr = np.asarray(pts)
        if np.any(~np.isfinite(arr)):
            raise ValueError("PGrid points must be finite (INFINITY is a flag)")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("PGrid points must be strictly increasing")
        if pts[0] < self.interval.a or pts[-1] >= self.interval.b:
            raise ValueError(
                f"PGrid points must lie in [{self.interval.a}, {self.interval.b})"
            )
        if self.refinement_depth < 0:
            raise ValueError("refinement_depth must be >= 0")
        object.__setattr__(self, "points", pts)

    @property
    def points_array(self) -> np.ndarray:
        return np.asarray(self.points)

    def without_infinity(self) -> "PGrid":
        if not self.include_infinity:
            return self
        return PGrid(self.interval, self.points, self.refinement_depth, False)

    def with_refinement(self, depth: int) -> "PGrid":
        return PGrid(self.interval, self.points, int(depth), self.include_infinity)


@dataclass(frozen=True)
class SupResult:
    """Value and argmax of a grid supremum.

    ``value`` equals the objective at ``argmax_p``; ``endpoint_flag`` is set
    when the discrete maximum was attained at the last finite grid point
    (possible growth toward the right endpoint).
    """

    value: float
    argmax_p: float
    grid: Optional[PGrid]
    endpoint_flag: bool = False

    def __float__(self) -> float:
        return self.value


def exponent_grid(a: float, b: float, n: int, p_max: float = P_MAX,
                  endpoint_offset: Optional[float] = None) -> np.ndarray:
    """Log-spaced exponents on [a, b) backing off the right endpoint."""
    if n < 1:
        raise ValueError(f"exponent grid point count must be >= 1, got {n}")
    a = float(a)
    b = float(b)
    if math.isfinite(b):
        eps = float(endpoint_offset) if endpoint_offset is not None else 1e-6 * (b - a)
        hi = b - eps
    else:
        hi = max(p_max, a + 1.0)
    if n == 1 or hi <= a:
        return np.array([a])
    return np.geomspace(a, hi, int(n))


def default_grid(psi: GeneratingFunction, n_points: int = DEFAULT_POINTS,
                 refinement_depth: int = DEFAULT_REFINEMENT,
                 p_max: float = P_MAX,
                 endpoint_offset: Optional[float] = None,
                 include_infinity: Optional[bool] = None) -> PGrid:
    """Default evaluation grid for a generating function.

    Log-spaced points on ``[a, min(b - eps, p_max)]`` merged with the
    function's anchors, plus the INFINITY point when psi is finite there.
    """
    a, b = psi.domain.a, psi.domain.b
    pts = exponent_grid(a, b, n_points, p_max=p_max, endpoint_offset=endpoint_offset)
    extras = [float(x) for x in psi.anchors
              if a <= float(x) < b and math.isfinite(float(x))]
    if extras:
        pts = np.unique(np.concatenate([pts, np.asarray(extras)]))
    if include_infinity is None:
        include_infinity = psi.infinity_value is not None
    return PGrid(psi.domain, tuple(pts), refinement_depth, bool(include_infinity))


def grid_from_points(interval: ExponentInterval, points: Sequence[float],
                     refinement_depth: int = DEFAULT_REFINEMENT,
                     include_infinity: bool = False) -> PGrid:
    pts = tuple(sorted(float(p) for p in points))
    return PGrid(interval, pts, refinement_depth, include_infinity)


def _golden_lane(lo: float, hi: float, x1: float, x2: float, f1: float,
                 f2: float):
    """One bracket's golden-section trajectory after its first two points.

    A generator: each step shrinks ``[lo, hi]`` toward the larger of ``f1``
    and ``f2`` (left on ties), yields the one new exponent and receives its
    value through ``send``.  The path depends only on the lane's own values.
    """
    while True:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _INVPHI2 * (hi - lo)
            f1 = yield x1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = yield x2


def _golden_max(fn: Callable[[list], Sequence[float]], brackets: Sequence[tuple],
                iters: int, best: float, best_p: float) -> tuple:
    """Golden-section maximum search of several brackets in lockstep.

    Each ``(lo, hi)`` bracket is a lane; zero-width brackets are dropped.
    ``fn`` maps a list of exponents to their values and is called once for
    the first two points of every lane and then once per step for the one
    new point of every lane: ``1 + iters`` calls in all.  The incumbent
    ``(best, best_p)`` is replaced by a candidate that is strictly larger,
    or equal at a smaller exponent.  That rule is a total order on
    candidates, so the result does not depend on the order of the lanes.
    """
    brackets = [(lo, hi) for lo, hi in brackets if hi > lo]
    if not brackets or iters <= 0:
        return best, best_p
    n = len(brackets)
    xs = ([lo + _INVPHI2 * (hi - lo) for lo, hi in brackets]
          + [lo + _INVPHI * (hi - lo) for lo, hi in brackets])
    vs = fn(xs)
    sends = [_golden_lane(lo, hi, xs[i], xs[n + i], vs[i], vs[n + i]).send
             for i, (lo, hi) in enumerate(brackets)]
    for x, v in zip(xs, vs):
        if v > best or (v == best and x < best_p):
            best, best_p = v, x
    xs = [send(None) for send in sends]
    lanes = list(range(n))
    # the step loop builds no zip, map or comprehension objects: at one or
    # two lanes they cost more than the per-point objectives themselves
    for _ in range(int(iters)):
        vs = fn(xs)
        nxt = []
        for i in lanes:
            x = xs[i]
            v = vs[i]
            if v > best or (v == best and x < best_p):
                best, best_p = v, x
            nxt.append(sends[i](v))
        xs = nxt
    return best, best_p


def sup_over_grid(objective: Callable[[list], Sequence[float]], grid: PGrid,
                  values: Optional[np.ndarray] = None) -> SupResult:
    """Maximum of ``objective`` over the grid, with golden-section refinement.

    ``objective`` maps a list of exponents to the list of their values.
    ``values`` optionally carries precomputed objective values at
    ``grid.points``.  Objective values may be ``-inf`` (excluded exponents)
    but not ``+inf`` or NaN.  Refinement searches the brackets around the
    two best separated grid points in lockstep (``_golden_max``: one
    objective call per step for both) and never lowers the discrete
    maximum.  Ties resolve toward the smallest exponent.  The INFINITY
    point, when the grid includes it, is asked for last and alone.
    """
    pts = grid.points_array
    if values is None:
        values = np.asarray(objective(list(grid.points)), dtype=float)
    else:
        values = np.asarray(values, dtype=float)
    if np.any(np.isnan(values)) or np.any(values == INFINITY):
        raise ValueError("objective must be finite or -inf at every grid point")

    k = int(np.argmax(values))  # first max = smallest exponent on ties
    best = float(values[k])
    best_p = grid.points[k]
    endpoint_flag = k == pts.size - 1

    if grid.refinement_depth > 0 and pts.size >= 2 and math.isfinite(best):
        centres = [k]
        if pts.size >= 4:
            masked = values.copy()
            masked[max(k - 1, 0):k + 2] = -INFINITY
            k2 = int(np.argmax(masked))
            if math.isfinite(masked[k2]):
                centres.append(k2)
        last = pts.size - 1
        brackets = [(grid.points[max(i - 1, 0)], grid.points[min(i + 1, last)])
                    for i in centres]
        best, best_p = _golden_max(objective, brackets, grid.refinement_depth,
                                   best, best_p)

    if grid.include_infinity:
        v_inf = float(objective([INFINITY])[0])
        if v_inf > best:
            best, best_p = v_inf, INFINITY
            endpoint_flag = False

    return SupResult(best, best_p, grid, endpoint_flag)


def _check_grid_in_domain(grid: PGrid, psi: GeneratingFunction) -> None:
    if grid.points[0] < psi.domain.a or grid.points[-1] >= psi.domain.b:
        raise ValueError("grid points fall outside the generating function domain")
    if grid.include_infinity and psi.infinity_value is None:
        raise ValueError("grid includes INFINITY but psi is not defined there")


def _grid_ratios(logs: np.ndarray, peak: np.ndarray, w: np.ndarray,
                 pts: np.ndarray, psiv: np.ndarray) -> np.ndarray:
    """``lp_norm / psi`` at every grid point that could be the grid argmax
    or the second bracket centre of ``sup_over_grid``; ``-inf`` elsewhere.

    The pruning argument: ``t = 1/p -> log ||f||_{1/t}`` is convex
    (Lyapunov's inequality; Hardy, Littlewood & Polya), so between two
    evaluated grid points the profile lies below the chord of its logarithm.
    The first pass evaluates ``_FIRST_PASS`` evenly spaced points.  Each
    later pass evaluates, in one kernel call, every point whose chord bound
    ``exp(chord) * (1 + _CHORD_SLACK) / psi`` is not a number strictly below
    ``T``, the best ratio outside the +-1 window of the best (``T`` is also
    at most the best).  A point below ``T`` ties neither the argmax nor the
    masked second maximum, so the grid argmax, the second centre and the
    endpoint flag equal those of a full pass.  The slack is relative, so the
    guard sets ``T = -inf`` and evaluates every point unless every weight is
    at least ``tiny * (mass + n)`` (the kernel's subnormal terms then round
    below the slack) and every evaluated norm is a normal float.
    """
    n = pts.size
    nt = -1.0 / pts  # -1/p rises along the grid, as np.interp needs
    ratios = np.full(n, -INFINITY)
    log_prof = np.empty(n)
    done = np.zeros(n, dtype=bool)
    batch = np.unique(np.arange(_FIRST_PASS) * (n - 1) // (_FIRST_PASS - 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exact = w.min() >= (w.sum() + w.size) * _TINY
        while batch.size:
            prof = _root_stage(logs, peak, w, pts[batch])[0]
            # the weighted sum falls as p grows, so the first grid point,
            # always evaluated, shows any overflow
            if not np.isfinite(prof).all():
                raise ValueError("the Lp norm of f is not finite at p = "
                                 f"{pts[batch][~np.isfinite(prof)][0]}")
            exact = exact and prof.min() >= _TINY
            ratios[batch] = prof / psiv[batch]  # finite / inf = 0
            log_prof[batch] = np.log(prof)
            done[batch] = True
            k = int(ratios.argmax())
            masked = ratios.copy()
            masked[max(k - 1, 0):k + 2] = -INFINITY
            T = masked.max() if exact else -INFINITY
            chord = np.interp(nt, nt[done], log_prof[done])
            bound = np.exp(chord) * (1.0 + _CHORD_SLACK) / psiv
            batch = np.flatnonzero(~(done | (bound < T)))  # NaN never skips
    return ratios


def gls_norm(f: GridFunction, psi: GeneratingFunction,
             grid: Optional[PGrid] = None) -> SupResult:
    """Grand norm ``sup_p lp_norm(f, p) / psi(p)`` over the grid.

    Grid points where ``psi = +inf`` contribute 0 (the ``x / inf = 0``
    convention), so the degenerate kind reduces exactly to ``lp_norm(f, r)``
    through its anchor.  The result is a lower bound of the continuum
    supremum; see the module docstring for the endpoint flag semantics.

    The grid pass skips the points that cannot be the argmax or the second
    bracket centre (the argument is in ``_grid_ratios``); value, argmax and
    flag equal those of the full pass.  Raises ``ValueError`` when the Lp
    norm of f overflows.
    """
    if grid is None:
        grid = default_grid(psi)
    _check_grid_in_domain(grid, psi)
    pts = grid.points_array
    w = f.space.weights
    absv = np.abs(f.values)[None, :]
    peak = absv.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):  # log(0) = -inf
        logs = _log_stage(absv, peak)  # shared by the grid pass and every step
    ratios = _grid_ratios(logs, peak, w, pts, psi.eval_array(pts))

    def objective(ps: list) -> list:
        if ps[0] == INFINITY:  # asked for alone
            norms = [float(peak[0, 0])]
        else:
            norms = _root_stage(logs, peak, w, np.array(ps))[0].tolist()
        out = []
        for p, norm in zip(ps, norms):
            d = psi.eval(p)
            out.append(0.0 if math.isinf(d) else norm / d)
        return out

    return sup_over_grid(objective, grid, values=ratios)


def fundamental_function(psi: GeneratingFunction, delta: float,
                         grid: Optional[PGrid] = None) -> SupResult:
    """``sup_p delta**(1/p) / psi(p)`` over the grid; nondecreasing in delta."""
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("delta must be a positive finite real")
    if grid is None:
        grid = default_grid(psi)
    _check_grid_in_domain(grid, psi)
    pts = grid.points_array
    psiv = psi.eval_array(pts)
    values = np.power(delta, 1.0 / pts) / psiv

    def objective(ps: list) -> list:
        out = []
        for p in ps:
            d = psi.eval(p)
            # delta**0 = 1 at p = inf
            out.append(0.0 if math.isinf(d) else delta ** (1.0 / p) / d)
        return out

    return sup_over_grid(objective, grid, values=values)


def classical_grand_norm(f: GridFunction, q: float,
                         eps_grid: Sequence[float]) -> SupResult:
    """``sup_eps eps**(1/(q-eps)) * lp_norm(f, q-eps)`` over eps in (0, q-1).

    Plain grid maximum (no refinement); coincides with ``gls_norm`` under
    the classical_grand generating function on the matching exponent grid
    ``p = q - eps``.
    """
    q = float(q)
    if not (q > 1.0 and math.isfinite(q)):
        raise ValueError("classical grand norm requires finite q > 1")
    eps = np.asarray(list(eps_grid), dtype=float)
    if eps.size == 0:
        raise ValueError("eps_grid must be non-empty")
    if np.any(eps <= 0.0) or np.any(eps >= q - 1.0):
        raise ValueError("all eps must lie in (0, q-1)")
    ps = q - eps
    profile = lp_norm_table(f.values, f.space.weights, ps)
    vals = eps ** (1.0 / ps) * profile
    k = int(np.argmax(vals))
    return SupResult(float(vals[k]), float(ps[k]), None, False)
