"""Rearrangement-invariant norms applied to the moment profile p -> |f|_p.

Two kinds are shipped behind one evaluation interface: the weighted sup
kind (a grand norm, delegating to :mod:`glsx.gls`), and a weighted integral
kind ``(integral |h(p)|**s w(p) dp)**(1/s)`` with trapezoid quadrature on
the norm's grid.  Quadrature sums of a single profile use ``math.fsum``, so
permuting samples that share a quadrature weight leaves the integral norm
bit-identical.

``verify_theorem2`` is the extrapolation-verification engine: it checks the
moment-norm inequality for any pair of these norms, and the grand-norm
check ``glsx.opnorm.verify_theorem1`` is its sup-kind special case; calls
with the same operator, grids, samples and seed share one read-only sampled table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .genfun import ExponentInterval, GeneratingFunction
from .gls import (P_MAX, PGrid, SupResult, default_grid, exponent_grid,
                  fundamental_function, gls_norm, grid_from_points)
from .measure import GridFunction, _spec_number, lp_norm_table
from .opnorm import (ExtrapolationReport, MatrixOperator, OperatorBoundCertificate,
                     _sampled_norms, minimal_constant)


def _trapezoid_weights(pts: np.ndarray) -> np.ndarray:
    if pts.size == 1:
        return np.ones(1)
    w = np.empty(pts.size)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w


@dataclass(frozen=True)
class MRINorm:
    """A rearrangement-invariant norm over functions of the exponent.

    ``kind`` is "sup" (grand norm with generating function ``psi``) or
    "integral" (order ``s`` with quadrature weights ``quad_weights`` at the
    grid points).
    """

    kind: str
    interval: ExponentInterval
    grid: PGrid
    psi: Optional[GeneratingFunction] = field(default=None, repr=False)
    s: float = 1.0
    quad_weights: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.kind not in ("sup", "integral"):
            raise ValueError(f"unknown moment norm kind {self.kind!r}")
        if self.kind == "sup" and self.psi is None:
            raise ValueError("sup kind requires a generating function")
        if self.kind == "integral":
            if self.quad_weights is None or len(self.quad_weights) != len(self.grid.points):
                raise ValueError("integral kind requires one quadrature weight per grid point")
            if self.s < 1.0:
                raise ValueError("integral kind requires s >= 1")

    def profile_norms(self, profiles: np.ndarray) -> np.ndarray:
        """Norms of nonnegative moment profiles sampled on the grid points,
        one per row of a (samples x points) table (a scalar for one profile)."""
        if self.kind == "sup":
            psiv = self.psi.eval_array(self.grid.points_array)
            with np.errstate(invalid="ignore"):
                return (profiles / psiv).max(axis=-1)
        qw = np.asarray(self.quad_weights)
        return (profiles ** self.s @ qw) ** (1.0 / self.s)

    def grid_fundamental(self, delta: float) -> tuple:
        """``(value, endpoint_flag)`` of the profile p -> delta**(1/p) on the
        grid points alone; the flag marks a sup-kind maximum at the last point."""
        pts = self.grid.points_array
        profile = np.power(delta, 1.0 / pts)
        if self.kind == "sup":
            vals = profile / self.psi.eval_array(pts)
            k = int(np.argmax(vals))
            return float(vals[k]), k == pts.size - 1
        return float(self.profile_norms(profile)), False

    def apply_to_profile(self, h: np.ndarray) -> float:
        """Norm of one moment profile sampled on the grid points."""
        h = np.abs(np.asarray(h, dtype=float))
        if self.kind == "sup":
            return float(self.profile_norms(h))
        qw = np.asarray(self.quad_weights)
        total = math.fsum((qw * h ** self.s).tolist())
        return float(total ** (1.0 / self.s))


def sup_mri_norm(psi: GeneratingFunction, grid: Optional[PGrid] = None) -> MRINorm:
    if grid is None:
        grid = default_grid(psi)
    return MRINorm("sup", psi.domain, grid, psi=psi)


def integral_mri_norm(interval, s: float = 1.0,
                      weight: Optional[Callable[[float], float]] = None,
                      n_points: int = 129, spacing: str = "log",
                      points: Optional[Sequence[float]] = None,
                      endpoint_offset: Optional[float] = None) -> MRINorm:
    """Trapezoid-quadrature integral norm on an exponent interval.

    ``weight`` is a positive weight function of the exponent (default 1).
    ``spacing`` picks log- or linearly spaced default points; explicit
    ``points`` override both.  ``endpoint_offset`` backs the grid off the
    (excluded) right endpoint, default ``1e-6 * (b - a)``.
    """
    if not isinstance(interval, ExponentInterval):
        interval = ExponentInterval(*interval)
    if points is not None:
        pts = np.asarray(sorted(float(p) for p in points))
    elif spacing == "log":
        pts = exponent_grid(interval.a, interval.b, n_points,
                            endpoint_offset=endpoint_offset)
    elif spacing == "linear":
        b = interval.b if math.isfinite(interval.b) else P_MAX
        eps = (float(endpoint_offset) if endpoint_offset is not None
               else 1e-6 * (b - interval.a))
        pts = np.linspace(interval.a, b - eps, int(n_points))
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    qw = _trapezoid_weights(pts)
    if weight is not None:
        qw = qw * np.array([float(weight(p)) for p in pts])
        if np.any(qw < 0.0):
            raise ValueError("weight function must be nonnegative")
    grid = grid_from_points(interval, pts, refinement_depth=0)
    return MRINorm("integral", interval, grid, s=float(s),
                   quad_weights=tuple(float(x) for x in qw))


def mri_norm(f: GridFunction, W: MRINorm) -> SupResult:
    """Moment norm of f: the W-norm of the profile p -> lp_norm(f, p)."""
    if W.kind == "sup":
        return gls_norm(f, W.psi, W.grid)
    pts = W.grid.points_array
    profile = lp_norm_table(f.values, f.space.weights, pts)
    return SupResult(W.apply_to_profile(profile), math.nan, W.grid, False)


def mri_fundamental(W: MRINorm, delta: float) -> SupResult:
    """W-norm of the profile p -> delta**(1/p); the fundamental value."""
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("delta must be a positive finite real")
    if W.kind == "sup":
        return fundamental_function(W.psi, delta, W.grid)
    pts = W.grid.points_array
    profile = np.power(delta, 1.0 / pts)
    return SupResult(W.apply_to_profile(profile), math.nan, W.grid, False)


def supp_ordering(W: MRINorm, R: MRINorm) -> bool:
    """Moment-support ordering: min of W's interval >= max of R's."""
    w_min = min(W.interval.a, W.interval.b)
    r_max = max(R.interval.a, R.interval.b)
    return w_min >= r_max


def verify_theorem2(A: MatrixOperator, cert: OperatorBoundCertificate,
                    W: MRINorm, R: MRINorm, samples: int = 1000, seed: int = 0,
                    cbar: Optional[float] = None, restarts: int = 32,
                    tol: float = 1e-8) -> ExtrapolationReport:
    """Check the moment-norm extrapolation inequality on sampled functions.

    For each sampled g (``samples`` seeded normal vectors plus the constant
    and basis vectors) the W-norm of the moment profile of Ag divided by W's
    fundamental value at 1/sigma must not exceed ``cbar`` times the same
    quantity for g under R.  One exponent grid per side, the norm's own,
    parameterizes the minimal constant (computed with ``restarts`` random
    ascent starts when ``cbar`` is None), both norms and both fundamental
    values, so the discrete inequality chain is exact up to the quality of
    the inner ascent.  Sup-kind endpoint flags are recorded in the report
    rather than raised; degenerate fundamental values and non-finite sampled
    sides (overflow) raise ``ValueError``, as do, before any work, a ``seed``
    or ``samples`` that is not an integer >= 0 and a negative or non-finite
    ``cbar``.  Calls with the same operator, grids, samples and seed share
    one read-only sampled table, also with ``check_sigma_condition``.
    """
    for name, n in (("seed", seed), ("samples (random test functions)", samples)):
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ValueError(f"{name} must be an integer >= 0, got {n!r}")
    if cbar is not None and not (cbar >= 0.0 and math.isfinite(cbar)):
        raise ValueError(f"cbar must be a nonnegative finite real, got {cbar}")
    if not cert.witnessed:
        raise ValueError("certificate must be witnessed by check_sigma_condition first")
    if W.interval.as_tuple() != cert.p_interval.as_tuple():
        raise ValueError("W's interval (psi's domain for a grand norm) must equal "
                         "the certificate p interval")
    if R.interval.as_tuple() != cert.q_interval.as_tuple():
        raise ValueError("R's interval (nu's domain for a grand norm) must equal "
                         "the certificate q interval")

    p_pts = W.grid.points_array
    q_pts = R.grid.points_array
    delta = 1.0 / cert.sigma
    phi_lhs, lhs_flag = W.grid_fundamental(delta)
    phi_rhs, rhs_flag = R.grid_fundamental(delta)
    if not (phi_lhs > 0.0 and math.isfinite(phi_lhs)):
        raise ValueError(f"degenerate left fundamental value {phi_lhs}")
    if not (phi_rhs > 0.0 and math.isfinite(phi_rhs)):
        raise ValueError(f"degenerate right fundamental value {phi_rhs}")
    if cbar is None:
        cbar = minimal_constant(A, cert.sigma, p_pts, q_pts,
                                samples=restarts, seed=seed).value

    G, PN, QN = _sampled_norms(A, p_pts, q_pts, samples, seed)
    lhs = W.profile_norms(PN) / phi_lhs
    rhs = cbar * R.profile_norms(QN) / phi_rhs
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ValueError("a sampled side of the inequality is not finite "
                         "(overflow); the check cannot be decided")

    positive = rhs > 0.0
    ratios = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=positive)
    bad = np.flatnonzero(np.where(positive, lhs > rhs * (1.0 + tol), lhs > 0.0))
    violations = tuple({"index": int(i), "lhs": float(lhs[i]), "rhs": float(rhs[i]),
                        "witness": [float(x) for x in G[i]]} for i in bad)
    return ExtrapolationReport(
        passed=not violations,
        samples=int(G.shape[0]),
        violations=violations,
        max_lhs_rhs_ratio=float(ratios.max(initial=0.0)),
        cbar=float(cbar),
        phi_lhs=phi_lhs,
        phi_rhs=phi_rhs,
        sigma=float(cert.sigma),
        p_points=tuple(float(p) for p in p_pts),
        q_points=tuple(float(qv) for qv in q_pts),
        seed=int(seed),
        tol=float(tol),
        lhs_endpoint_flag=lhs_flag,
        rhs_endpoint_flag=rhs_flag,
    )


def mri_norm_from_spec(spec: dict, grid_points: int = 129) -> MRINorm:
    """Parse ``{"kind":"sup","psi":{...}}`` or
    ``{"kind":"integral","s":1,"weight":"const","interval":[a,b]}``."""
    from .genfun import generating_function_from_spec

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError('moment norm spec needs a "kind"')
    if spec["kind"] == "sup":
        psi = generating_function_from_spec(spec["psi"])
        return sup_mri_norm(psi, default_grid(psi, n_points=grid_points,
                                              refinement_depth=0))
    if spec["kind"] == "integral":
        weight = spec.get("weight", "const")
        if weight not in (None, "const"):
            raise ValueError('only the "const" weight is supported in specs')
        label = 'moment norm spec "interval"'
        interval = spec.get("interval")
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
            raise ValueError(f'{label} must be [a, b] (b may be "inf" or null)')
        a, b = interval
        b = math.inf if b in (None, "inf") else _spec_number(b, f"{label} b")
        return integral_mri_norm(ExponentInterval(_spec_number(a, f"{label} a"), b),
                                 s=_spec_number(spec.get("s", 1.0), 'moment norm spec "s"'),
                                 n_points=grid_points)
    raise ValueError(f"unknown moment norm kind {spec['kind']!r}")
