"""Convex conjugate of ``p * log(psi(p))`` and the tail bound it implies.

For a function with grand norm at most 1, the measure of ``{|f| >= t}`` is
bounded by ``exp(-hstar(log t))`` for ``t >= e``, where ``hstar`` is the
conjugate ``sup_p (p*v - p*log psi(p))``.  The conjugate computed here is a
grid lower bound of the true supremum, so the emitted tail bound is an
upper bound of the true one and the check below is sound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .genfun import GeneratingFunction
from .gls import PGrid, SupResult, default_grid, gls_norm, sup_over_grid
from .measure import INFINITY, GridFunction, as_exponent, tail_function

#: relative growth under grid extension that flags a possibly infinite conjugate
_GROWTH_FLAG = 0.01

#: ``hstar(log t)`` per ``(id(psi), grid, t)`` for ``tail_bound_check``; each
#: entry keeps its psi alive, so the id cannot pass to another object
_CONJUGATE_CACHE: dict = {}


def h_of_p(psi: GeneratingFunction, p: float) -> float:
    """``p * log(psi(p))``; +inf where psi is +inf."""
    p = as_exponent(p)
    val = psi.eval(p)
    if math.isinf(val):
        return INFINITY
    return p * math.log(val)


@dataclass(frozen=True)
class FenchelData:
    """Conjugate value at one dual point v."""

    psi: GeneratingFunction = field(repr=False)
    v: float
    hstar: float
    argmax_p: float
    endpoint_flag: bool = False
    possibly_infinite: bool = False
    grid: Optional[PGrid] = field(default=None, repr=False)


def _conjugate_on_grid(psi: GeneratingFunction, v: float, grid: PGrid) -> SupResult:
    pts = grid.points_array
    psiv = psi.eval_array(pts)
    with np.errstate(divide="ignore"):
        values = pts * v - pts * np.log(psiv)  # psi = inf -> -inf

    fn = psi.fn

    def objective(ps: list) -> list:
        out = []
        for p in ps:
            # p * v - h_of_p(psi, p), psi evaluated once; the grid has no
            # INFINITY point and its finite points lie inside psi's domain,
            # so psi's unchecked fn serves them
            d = float(fn(p))
            out.append(-INFINITY if math.isinf(d) else p * v - p * math.log(d))
        return out

    return sup_over_grid(objective, grid, values=values)


def young_fenchel(psi: GeneratingFunction, v: float,
                  grid: Optional[PGrid] = None) -> FenchelData:
    """Conjugate ``sup_p (p*v - p*log psi(p))`` over the finiteness domain.

    When the discrete maximum hits the last grid point, the grid extent is
    doubled once (toward the right endpoint for finite domains, doubling the
    truncation point otherwise); growth above 1% flags the value as possibly
    infinite.  The flagged, extended value is reported, never a silently
    truncated one.
    """
    v = float(v)
    if grid is None:
        grid = default_grid(psi)
    grid = grid.without_infinity()
    res = _conjugate_on_grid(psi, v, grid)
    endpoint_flag = res.endpoint_flag
    possibly_infinite = False
    if endpoint_flag:
        b = psi.domain.b
        last = grid.points[-1]
        if math.isfinite(b):
            wider = default_grid(psi, n_points=len(grid.points),
                                 refinement_depth=grid.refinement_depth,
                                 endpoint_offset=(b - last) / 2.0,
                                 include_infinity=False)
        else:
            wider = default_grid(psi, n_points=len(grid.points),
                                 refinement_depth=grid.refinement_depth,
                                 p_max=2.0 * last, include_infinity=False)
        extended = _conjugate_on_grid(psi, v, wider)
        scale = max(abs(res.value), 1e-300)
        possibly_infinite = (extended.value - res.value) > _GROWTH_FLAG * scale
        if extended.value > res.value:
            res = extended
    return FenchelData(psi, v, res.value, res.argmax_p, endpoint_flag,
                       possibly_infinite, res.grid)


@dataclass(frozen=True)
class TailBoundRow:
    t: float
    tail: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class TailBoundReport:
    rows: tuple
    all_ok: bool
    norm: float

    def violations(self) -> list:
        return [r for r in self.rows if not r.ok]


def tail_bound_check(f: GridFunction, psi: GeneratingFunction,
                     t_grid: Sequence[float], grid: Optional[PGrid] = None,
                     tol: float = 1e-9) -> TailBoundReport:
    """Check ``tail_function(f, t) <= exp(-hstar(log t))`` for each t >= e.

    Requires ``gls_norm(f, psi, grid) <= 1 + tol`` (the caller normalizes
    first).  Because the computed conjugate underestimates the true
    supremum, the computed bound overestimates the true one, so a reported
    violation is a genuine violation.
    """
    ts = [float(t) for t in t_grid]
    for t in ts:
        if not math.e <= t < INFINITY:  # NaN fails too
            raise ValueError(
                f"tail bound thresholds must be finite and satisfy t >= e, got {t}")
    if grid is None:
        grid = default_grid(psi)
    nrm = gls_norm(f, psi, grid)
    if nrm.value > 1.0 + tol:
        raise ValueError(
            f"tail_bound_check requires a normalized function; grand norm is {nrm.value}"
        )
    fen_grid = grid.without_infinity()
    rows = []
    for t in ts:
        hstar = _conjugate_at(psi, fen_grid, t)
        bound = math.exp(-hstar) if not math.isinf(hstar) else 0.0
        tail = tail_function(f, t)
        rows.append(TailBoundRow(t, tail, bound, tail <= bound * (1.0 + tol)))
    return TailBoundReport(tuple(rows), all(r.ok for r in rows), nrm.value)


def _conjugate_at(psi: GeneratingFunction, grid: PGrid, t: float) -> float:
    """``young_fenchel(psi, log t, grid).hstar``, cached: it does not depend
    on the function whose tails it bounds."""
    key = (id(psi), grid, t)
    hit = _CONJUGATE_CACHE.get(key)
    if hit is not None:
        return hit[1]
    hstar = young_fenchel(psi, math.log(t), grid).hstar
    if len(_CONJUGATE_CACHE) >= 256:
        _CONJUGATE_CACHE.clear()
    _CONJUGATE_CACHE[key] = (psi, hstar)
    return hstar
