"""Generating functions of the exponent.

A generating function is a positive function ``psi(p)`` on a half-open
exponent interval ``[a, b)`` with positive infimum on compact subsets.  It
may take the value ``+inf`` (e.g. at a singular endpoint, or everywhere off
a single exponent for the degenerate kind); consumers apply the convention
``x / inf = 0`` when forming ratios.

Evaluation exactly at ``b`` is an error; evaluation at ``a`` is allowed and
returns ``+inf`` where the defining formula diverges there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .measure import (INFINITY, GridFunction, _spec_number, as_exponent, is_infinite,
                      lp_norm, lp_norm_table)


@dataclass(frozen=True)
class ExponentInterval:
    """Half-open exponent interval [a, b), 1 <= a < b <= inf."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if math.isnan(a) or math.isnan(b):
            raise ValueError("interval endpoints must not be NaN")
        if a < 1.0 or not a < b:
            raise ValueError(f"need 1 <= a < b, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def contains(self, p: float) -> bool:
        return self.a <= p < self.b

    def as_tuple(self) -> tuple:
        return (self.a, self.b)


@dataclass(frozen=True)
class GeneratingFunction:
    """Positive function of the exponent on a half-open interval.

    ``anchors`` are exponents every evaluation grid inside the domain should
    include (the degenerate kind is finite only at its anchor; natural
    functions are exact only at their defining grid).  ``infinity_value`` is
    the value at the supremum exponent when that is finite, else ``None``.
    """

    domain: ExponentInterval
    kind: str
    params: dict = field(default_factory=dict)
    fn: Callable[[float], float] = field(default=None, repr=False)
    vec_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    anchors: tuple = ()
    infinity_value: Optional[float] = None

    def eval(self, p: float) -> float:
        p = as_exponent(p)
        if is_infinite(p):
            if self.infinity_value is None:
                raise ValueError(f"{self.kind} generating function is not defined at p = inf")
            return self.infinity_value
        if not self.domain.contains(p):
            raise ValueError(
                f"exponent {p} outside domain [{self.domain.a}, {self.domain.b})"
            )
        return float(self.fn(p))

    def eval_array(self, ps) -> np.ndarray:
        ps = np.asarray(ps, dtype=float)
        outside = ps[~((ps >= self.domain.a) & (ps < self.domain.b))]  # NaN is outside too
        if outside.size:
            raise ValueError(
                f"exponent {outside[0]} outside domain [{self.domain.a}, {self.domain.b})"
            )
        if self.vec_fn is not None:
            return np.asarray(self.vec_fn(ps), dtype=float)
        return np.array([float(self.fn(p)) for p in ps])

    def min_on_grid(self, n: int = 100) -> float:
        """Infimum proxy on an n-point grid strictly inside the domain."""
        a, b = self.domain.a, self.domain.b
        hi = a + 0.9 * (min(b, a + 100.0) - a) if math.isfinite(b) else a + 100.0
        lo = a + 1e-9 * (hi - a)
        pts = np.geomspace(max(lo, a), hi, n)
        return float(self.eval_array(pts).min())

    def to_spec(self) -> dict:
        spec = {"kind": self.kind}
        spec.update(self.params)
        return spec


def _powneg(base: float, expo: float) -> float:
    """base**(-expo) for base >= 0, expo >= 0, with 0**(-positive) = inf."""
    if expo == 0.0:
        return 1.0
    if base == 0.0:
        return INFINITY
    return base ** (-expo)


def make_power(m: float) -> GeneratingFunction:
    """psi(p) = p**(1/m) on [1, inf)."""
    m = float(m)
    if not m > 0.0:
        raise ValueError("power kind requires m > 0")
    inv = 1.0 / m
    return GeneratingFunction(
        domain=ExponentInterval(1.0, INFINITY),
        kind="power",
        params={"m": m},
        fn=lambda p: p ** inv,
        vec_fn=lambda ps: ps ** inv,
    )


def make_boundary(b: float, alpha: float, beta: float) -> GeneratingFunction:
    """psi(p) = (p-1)**(-alpha) * (b-p)**(-beta) on [1, b)."""
    b = float(b)
    alpha = float(alpha)
    beta = float(beta)
    if not (1.0 < b < INFINITY):
        raise ValueError("boundary kind requires 1 < b < inf")
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("boundary kind requires alpha, beta >= 0")

    def fn(p: float) -> float:
        return _powneg(p - 1.0, alpha) * _powneg(b - p, beta)

    def vec_fn(ps: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            left = (ps - 1.0) ** (-alpha) if alpha > 0 else np.ones_like(ps)
            right = (b - ps) ** (-beta) if beta > 0 else np.ones_like(ps)
        return left * right

    return GeneratingFunction(
        domain=ExponentInterval(1.0, b),
        kind="boundary",
        params={"b": b, "alpha": alpha, "beta": beta},
        fn=fn,
        vec_fn=vec_fn,
    )


def make_degenerate(r: float) -> GeneratingFunction:
    """psi(r) = 1 and psi(p) = +inf off r; reduces the sup norm to lp_norm(., r)."""
    r = float(r)
    if r < 1.0 or math.isinf(r):
        raise ValueError("degenerate kind requires finite r >= 1")

    def fn(p: float) -> float:
        return 1.0 if p == r else INFINITY

    def vec_fn(ps: np.ndarray) -> np.ndarray:
        return np.where(ps == r, 1.0, INFINITY)

    return GeneratingFunction(
        domain=ExponentInterval(1.0, INFINITY),
        kind="degenerate",
        params={"r": r},
        fn=fn,
        vec_fn=vec_fn,
        anchors=(r,),
    )


def make_classical_grand(q: float) -> GeneratingFunction:
    """psi(p) = (q-p)**(-1/p) on [1, q); substituting p = q - eps recovers the
    classical sup over eps of eps**(1/(q-eps)) * lp_norm(f, q-eps)."""
    q = float(q)
    if not (q > 1.0 and math.isfinite(q)):
        raise ValueError("classical_grand kind requires finite q > 1")

    def fn(p: float) -> float:
        return (q - p) ** (-1.0 / p)

    return GeneratingFunction(
        domain=ExponentInterval(1.0, q),
        kind="classical_grand",
        params={"q": q},
        fn=fn,
        vec_fn=lambda ps: (q - ps) ** (-1.0 / ps),
    )


def natural_function(family: Sequence[GridFunction], grid: Sequence[float]) -> GeneratingFunction:
    """Family sup of p-norms, ``psi(p) = max_v lp_norm(f_v, p)``.

    Exact at the given grid exponents; log-log linear interpolation between
    them, constant beyond the last one.  At ``p = inf`` the value is the
    family sup of the max norms.  Every member then has grand norm <= 1 on
    the defining grid and the family sup of grand norms equals 1 there.
    """
    family = list(family)
    if not family:
        raise ValueError("natural_function requires a non-empty family")
    knots = sorted({as_exponent(p) for p in grid if not is_infinite(as_exponent(p))})
    if not knots:
        raise ValueError("natural_function requires at least one finite grid exponent")
    knots_arr = np.array(knots)

    profiles = np.vstack(
        [lp_norm_table(f.values, f.space.weights, knots_arr) for f in family]
    )
    h = profiles.max(axis=0)
    if np.any(h <= 0.0):
        raise ValueError("natural_function requires a family with at least one nonzero member")
    h_inf = max(lp_norm(f, INFINITY) for f in family)

    log_p = np.log(knots_arr)
    log_h = np.log(h)
    p_last = float(knots_arr[-1])
    h_last = float(h[-1])

    def fn(p: float) -> float:
        if p >= p_last:
            return h_last
        return float(np.exp(np.interp(np.log(p), log_p, log_h)))

    def vec_fn(ps: np.ndarray) -> np.ndarray:
        out = np.exp(np.interp(np.log(ps), log_p, log_h))
        return np.where(ps >= p_last, h_last, out)

    return GeneratingFunction(
        domain=ExponentInterval(float(knots_arr[0]), INFINITY),
        kind="natural",
        params={"grid": [float(p) for p in knots_arr]},
        fn=fn,
        vec_fn=vec_fn,
        anchors=tuple(float(p) for p in knots_arr),
        infinity_value=float(h_inf),
    )


def constant_function(c: float = 1.0, a: float = 1.0, b: float = INFINITY) -> GeneratingFunction:
    """psi(p) = c, a custom flat generating function."""
    c = float(c)
    if not c > 0.0:
        raise ValueError("constant generating function must be positive")
    return GeneratingFunction(
        domain=ExponentInterval(a, b),
        kind="custom",
        params={"value": c},
        fn=lambda p: c,
        vec_fn=lambda ps: np.full_like(ps, c),
        infinity_value=c if math.isinf(float(b)) else None,
    )


def restrict(psi: GeneratingFunction, a: float, b: float) -> GeneratingFunction:
    """Same formula on a sub-interval [a, b) of psi's domain."""
    a = float(a)
    b = float(b)
    if a < psi.domain.a or b > psi.domain.b or not a < b:
        raise ValueError(
            f"[{a}, {b}) is not a sub-interval of [{psi.domain.a}, {psi.domain.b})"
        )
    params = dict(psi.params)
    params["domain"] = [a, "inf" if math.isinf(b) else b]
    keep_inf = psi.infinity_value if (math.isinf(b) and math.isinf(psi.domain.b)) else None
    return GeneratingFunction(
        domain=ExponentInterval(a, b),
        kind=psi.kind,
        params=params,
        fn=psi.fn,
        vec_fn=psi.vec_fn,
        anchors=tuple(x for x in psi.anchors if a <= x < b),
        infinity_value=keep_inf,
    )


#: builder and numeric spec fields of each kind a spec may name
_KIND_BUILDERS = {
    "power": (make_power, ("m",)),
    "boundary": (make_boundary, ("b", "alpha", "beta")),
    "degenerate": (make_degenerate, ("r",)),
    "classical_grand": (make_classical_grand, ("q",)),
}


def generating_function_from_spec(spec: dict) -> GeneratingFunction:
    """Parse specs like {"kind": "power", "m": 2}; an optional "domain":
    [a, b] entry (b may be "inf" or null) restricts the result.  Numeric
    fields must be JSON numbers: booleans and strings are rejected."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError('generating function spec needs a "kind"')
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KIND_BUILDERS:
        raise ValueError(f"unknown generating function kind {kind!r}")
    builder, fields = _KIND_BUILDERS[kind]
    psi = builder(*(_spec_number(spec.get(name), f'generating function spec "{name}"')
                    for name in fields))
    domain = spec.get("domain")
    if domain is not None:
        label = 'generating function spec "domain"'
        if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
            raise ValueError(f'{label} must be [a, b] (b may be "inf" or null)')
        a, b = domain
        psi = restrict(psi, _spec_number(a, f"{label} a"),
                       INFINITY if b in (None, "inf") else _spec_number(b, f"{label} b"))
    return psi
