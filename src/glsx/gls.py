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
refined in lockstep.  A candidate replaces the incumbent when its value is
strictly larger, or equal at a smaller exponent; this is a total order, so
the result does not depend on which bracket offered a candidate first.

A golden step's next point depends only on whether ``f1 >= f2``, never on
a value, so the ``2**d - 1`` points that the next ``d`` steps could ask
for are known in advance.  ``_golden_max`` asks for all of them in one
call and walks each bracket's tree with the real values: ``1 + ceil(steps
/ d)`` calls, and the points, comparisons and result of one step per call,
bit for bit, whenever a value does not depend on which exponents share its
call.  ``sup_over_grid`` runs ``d = 1``: its objectives are per-point
Python.  ``gls_norm``'s norms come from one kernel call per batch, which
gives each norm the same bits whatever shares the call; it takes the
deepest ``d <= 4`` whose call of two brackets stays within 2,048 kernel
terms (``_lookahead``: ``d = 4`` up to 68 points of f, ``d = 1`` above
341), where the saved per-call overhead outweighs the kernel's work on the
points the walk never reads.

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
#: most golden steps one refinement call of ``gls_norm`` speculates over
_MAX_LOOKAHEAD = 4
#: most kernel terms (exponents x points of f) of one speculative call:
#: lookahead 4 up to 68 points, 1 above 341, where the kernel's work on
#: the unread exponents would cost more than the calls it saves
_LOOKAHEAD_BUDGET = 2048


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


def _golden_tree(lo: float, hi: float, x1: float, x2: float, left: bool,
                 depth: int, out: list) -> None:
    """Append to ``out`` the ``2**depth - 1`` exponents that the next
    ``depth`` golden steps of one lane could ask for, in heap order.

    A step shrinks ``[lo, hi]`` toward ``x1`` when ``left`` (its ``f1 >=
    f2``) and toward ``x2`` otherwise, and asks for one new exponent; which
    one depends only on that comparison, never on a value.  Node ``i`` is
    the step taken in its state; its children ``2i + 1`` and ``2i + 2``
    are the next step when the comparison after it is true and false.  The
    arithmetic is the sequential step's, so every exponent has its bits.
    """
    if left:  # hi, x2, x1 = x2, x1, new
        x = lo + _INVPHI2 * (x2 - lo)
        state = (lo, x2, x, x1)
    else:  # lo, x1, x2 = x1, x2, new
        x = x1 + _INVPHI * (hi - x1)
        state = (x1, hi, x2, x)
    out.append(x)
    states = [state]  # (lo, hi, x1, x2) after each node of the level
    for _ in range(depth - 1):
        nxt = []
        for lo, hi, x1, x2 in states:
            x = lo + _INVPHI2 * (x2 - lo)
            out.append(x)
            nxt.append((lo, x2, x, x1))
            x = x1 + _INVPHI * (hi - x1)
            out.append(x)
            nxt.append((x1, hi, x2, x))
        states = nxt


def _golden_max(fn: Callable[[list], Sequence[float]], brackets: Sequence[tuple],
                iters: int, best: float, best_p: float, lookahead: int) -> tuple:
    """Golden-section maximum search of several brackets in lockstep,
    ``lookahead`` steps per objective call.

    Each ``(lo, hi)`` bracket is a lane; zero-width brackets are dropped.
    ``fn`` maps a list of exponents to their values and is called once for
    the first two points of every lane.  Then each round of ``d =
    min(lookahead, steps left)`` steps makes one call holding, for every
    lane, the ``2**d - 1`` exponents that its next ``d`` steps could ask
    for (``_golden_tree``): ``1 + ceil(iters / lookahead)`` calls in all.
    Each lane then walks its tree with the real values: a step's point
    depends only on the comparisons before it, so the walk asks for,
    compares and keeps exactly the points of one step per call, bit for
    bit, as long as a value does not depend on which exponents share its
    call.  Only the walked entries of a call's result are read, each once.

    The incumbent ``(best, best_p)`` is replaced by a candidate that is
    strictly larger, or equal at a smaller exponent.  That rule is a total
    order on candidates, so the result does not depend on the order of
    the lanes.
    """
    brackets = [(lo, hi) for lo, hi in brackets if hi > lo]
    if not brackets or iters <= 0:
        return best, best_p
    n = len(brackets)
    xs = ([lo + _INVPHI2 * (hi - lo) for lo, hi in brackets]
          + [lo + _INVPHI * (hi - lo) for lo, hi in brackets])
    vs = fn(xs)
    lanes = []  # (lo, hi, x1, x2, f1, f2)
    for i in range(n):
        x1, x2, f1, f2 = xs[i], xs[n + i], vs[i], vs[n + i]
        lanes.append((*brackets[i], x1, x2, f1, f2))
        for x, v in ((x1, f1), (x2, f2)):
            if v > best or (v == best and x < best_p):
                best, best_p = v, x
    left = int(iters)
    # the round builds no zip, map or comprehension objects: at one or two
    # lanes they cost more than a cheap objective itself
    while left:
        d = min(lookahead, left)
        left -= d
        size = 2 ** d - 1
        xs = []
        for lo, hi, x1, x2, f1, f2 in lanes:
            if d == 1:  # the tree's root, without the call
                xs.append(lo + _INVPHI2 * (x2 - lo) if f1 >= f2
                          else x1 + _INVPHI * (hi - x1))
            else:
                _golden_tree(lo, hi, x1, x2, f1 >= f2, d, xs)
        vs = fn(xs)
        walked = []
        base = 0
        for lo, hi, x1, x2, f1, f2 in lanes:
            j = 0
            while j < size:
                x = xs[base + j]
                v = vs[base + j]
                if f1 >= f2:
                    hi, x2, f2, x1, f1 = x2, x1, f1, x, v
                else:
                    lo, x1, f1, x2, f2 = x1, x2, f2, x, v
                if v > best or (v == best and x < best_p):
                    best, best_p = v, x
                j = 2 * j + 1 if f1 >= f2 else 2 * j + 2
            walked.append((lo, hi, x1, x2, f1, f2))
            base += size
        lanes = walked
    return best, best_p


def sup_over_grid(objective: Callable[[list], Sequence[float]], grid: PGrid,
                  values: Optional[np.ndarray] = None) -> SupResult:
    """Maximum of ``objective`` over the grid, with golden-section refinement.

    ``objective`` maps a list of exponents to the list of their values.
    ``values`` optionally carries precomputed objective values at
    ``grid.points``.  Objective values may be ``-inf`` (excluded exponents)
    but not ``+inf`` or NaN.  Refinement searches the brackets around the
    two best separated grid points in lockstep (``_golden_max``: one
    objective call per step for both, ``1 + grid.refinement_depth`` calls)
    and never lowers the discrete maximum (``gls_norm`` asks for several
    steps per call instead; see the module docstring).  Ties resolve
    toward the smallest exponent.  The INFINITY point, when the grid
    includes it, is asked for last and alone.
    """
    return _sup_over_grid(objective, grid, values, 1)


def _sup_over_grid(objective: Callable[[list], Sequence[float]], grid: PGrid,
                   values: Optional[np.ndarray], lookahead: int) -> SupResult:
    """``sup_over_grid`` with ``lookahead`` golden steps per refinement call
    (see ``_golden_max``); the result does not depend on ``lookahead`` when
    an objective value does not depend on which exponents share its call."""
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
                                   best, best_p, lookahead)

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
    flag equal those of the full pass.  The refinement speculates
    ``_lookahead(f.space.size)`` golden steps per kernel call (see
    ``_golden_max``), which gives the values of one step per call.  Raises
    ``ValueError`` when the Lp norm of f overflows.
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

    def objective(ps: list) -> _Ratios:
        if ps[0] == INFINITY:  # asked for alone
            return _Ratios(ps, [float(peak[0, 0])], psi)
        return _Ratios(ps, _root_stage(logs, peak, w, np.array(ps))[0].tolist(), psi)

    return _sup_over_grid(objective, grid, ratios, _lookahead(f.space.size))


def _lookahead(size: int) -> int:
    """Golden steps per refinement call of ``gls_norm`` on an ``size``-point
    function: the deepest ``d <= _MAX_LOOKAHEAD`` whose call of two lanes
    of ``2**d - 1`` exponents holds at most ``_LOOKAHEAD_BUDGET`` kernel
    terms, and at least 1."""
    d = 1
    while d < _MAX_LOOKAHEAD and 2 * (2 ** (d + 1) - 1) * size <= _LOOKAHEAD_BUDGET:
        d += 1
    return d


class _Ratios:
    """``norm / psi(p)`` at the exponents of one ``gls_norm`` objective
    call, each divided when the golden walk reads it: a speculative call
    holds up to 15 exponents per lane and the walk reads 4.  Finite
    exponents lie inside the grid by construction, so psi's unchecked
    ``fn`` serves them (``psi.eval`` returns ``float(fn(p))`` after
    validating ``p``); INFINITY keeps ``psi.eval``."""

    __slots__ = ("ps", "norms", "psi")

    def __init__(self, ps: list, norms: list, psi: GeneratingFunction) -> None:
        self.ps, self.norms, self.psi = ps, norms, psi

    def __getitem__(self, i: int) -> float:
        p = self.ps[i]
        d = self.psi.eval(p) if p == INFINITY else float(self.psi.fn(p))
        return 0.0 if math.isinf(d) else self.norms[i] / d


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
    fn = psi.fn

    def objective(ps: list) -> list:
        out = []
        for p in ps:
            # finite points lie inside the grid: psi's unchecked fn
            d = psi.eval(p) if p == INFINITY else float(fn(p))
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
