"""Weighted discrete measure spaces and Lebesgue-Riesz norms.

Conventions shared by the whole package:

* A measure space is a finite list of points; point ``j`` carries a strictly
  positive weight ``w[j]`` and the total mass is ``sum(w)``.
* Exponents are floats in ``[1, inf)`` or ``INFINITY`` (``math.inf``), the
  supremum exponent.
* ``lp_norm(f, p) = (sum_j w[j] * |f[j]|**p) ** (1/p)`` for finite ``p``,
  and ``max_j |f[j]|`` at ``p = inf`` (all weights are positive, so the
  essential supremum is the plain maximum).

Every p-norm in the package is evaluated by one kernel, ``_row_norms``, in
rescaled form ``M * (sum_j w[j] * exp(p * log(|f[j]|/M)))**(1/p)`` with
``M = max|f|``.  Rescaling keeps the computation overflow-free for ``p`` up
to ``1e4`` and beyond; every term is nonnegative, so numpy's pairwise
summation is accurate to a few ulps at any size.  ``INFINITY`` gives ``M``.
A norm does not depend on which other exponents or rows share its call.
``gls_norm`` calls the kernel's two stages itself, ``_log_stage`` once and
``_root_stage`` per batch of exponents, and the ascent's ``_col_norms``
runs their arithmetic by columns; both get the kernel's norms bit for bit.

Layout: a sum's bits depend only on its terms and its summation order, so
the kernel fixes the order by row width alone.  Rows narrower than 8 are
laid out column-major, so the row maximum, the ``exp`` terms and the row
sum run elementwise across columns (3-10x faster on tall tables of 1-4
point functions); below width 8 numpy sums a contiguous row in plain order
too.  Wider rows are laid out row-major and each is summed pairwise, as a
one-row call sums it.  So a row's bits depend neither on the input's
layout nor on the rows that share its call.  The result is always
C-ordered: the moment norms' ``profiles ** s @ qw``
(``mri.MRINorm.profile_norms``) is a BLAS gemv whose rounding depends on
the layout of its matrix.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

INFINITY = math.inf
#: rows narrower than this reduce across columns (see the module docstring)
_NARROW = 8


def as_exponent(p: float) -> float:
    """Validate and return an exponent: a float in [1, inf) or INFINITY."""
    p = float(p)
    if math.isnan(p):
        raise ValueError("exponent must not be NaN")
    if p < 1.0:
        raise ValueError(f"exponent must be >= 1, got {p}")
    return p


def is_infinite(p: float) -> bool:
    return math.isinf(p)


@dataclass(frozen=True)
class MeasureSpace:
    """Finite set of points with strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def counting(cls, n: int) -> "MeasureSpace":
        return cls(np.ones(int(n)))

    @classmethod
    def normalized(cls, n: int) -> "MeasureSpace":
        """Uniform probability weights 1/n."""
        n = int(n)
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function on a :class:`MeasureSpace`."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("values must be 1-d")
        if v.size != self.space.size:
            raise ValueError(
                f"values length {v.size} does not match space size {self.space.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def on_counting(cls, values: Sequence[float]) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        return cls(MeasureSpace.counting(values.size), values)

    @classmethod
    def constant(cls, space: MeasureSpace, c: float) -> "GridFunction":
        return cls(space, np.full(space.size, float(c)))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.space, self.values * float(c))


def _row_norms(V: np.ndarray, w: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Weighted p-norms of the rows of ``V`` (shape ``(m, n)``).

    ``ps`` broadcasts against ``(m, 1)``: a 1-d array of ``k`` exponents
    gives the ``(m, k)`` table, an ``(m, 1)`` column one exponent per row.
    Exponents are not validated; INFINITY gives the row maximum.  A table
    runs the log/exp work only for its finite exponents; a per-row call
    runs it on every row, then gives the INFINITY rows their maxima.  A
    row's bits depend only on the row, its weights and its exponent, not on
    the rows, exponents or input layout that share the call; the result is
    C-ordered (see the module docstring).
    """
    absv = np.abs(V, order="F" if V.shape[1] < _NARROW else "C")
    mx = absv.max(axis=1, keepdims=True)
    inf = np.isinf(ps)
    n_inf = np.count_nonzero(inf)
    if n_inf == inf.size:
        return np.where(inf, mx, 0.0)
    if n_inf and ps.ndim == 1:
        out = np.empty((absv.shape[0], ps.size))
        out[:, inf] = mx
        out[:, ~inf] = _finite_norms(absv, mx, w, ps[~inf])
        return out
    out = np.ascontiguousarray(_finite_norms(absv, mx, w, ps))
    return np.where(inf, mx, out) if n_inf else out


def _finite_norms(absv: np.ndarray, mx: np.ndarray, w: np.ndarray,
                  ps: np.ndarray) -> np.ndarray:
    """``_row_norms`` for finite exponents, given ``|V|`` and its row maxima
    (an INFINITY exponent gives a value the caller replaces)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf
        return _root_stage(_log_stage(absv, mx), mx, w, ps)


def _log_stage(absv: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """``log(|V| / M)`` per row: the exponent-free half of ``_finite_norms``,
    which a caller may keep across many exponents.  A zero gives ``-inf``;
    callers run it under ``np.errstate(divide="ignore")``."""
    return np.log(absv / np.where(mx > 0.0, mx, 1.0))


def _log_table(absx: np.ndarray) -> tuple:
    """Column maxima ``M`` of ``absx >= 0`` and ``log(absx / M)``: the log
    stage by columns, under the same ``errstate`` as ``_log_stage``."""
    mx = absx.max(axis=0)
    return mx, _log_stage(absx, mx)


def _col_norms(X: np.ndarray, w: np.ndarray, ps: np.ndarray, inf: bool) -> tuple:
    """``_row_norms(X.T, w, ps[:, None])[:, 0]`` bit for bit, by the
    kernel's arithmetic on the kernel's layout (``_root_stage`` on ``logs.T``
    gives these bits, 3-7% slower in the ascent), and the log table of
    ``|X|`` (``None`` when ``inf``).  ``inf`` says whether every column's
    exponent is INFINITY; otherwise none is, as in the ascent's
    class-uniform groups.  Callers hold ``np.errstate(divide="ignore")``
    for the log of a zero."""
    absx = np.abs(X, order="C" if X.shape[0] < _NARROW else "F")
    if inf:
        return absx.max(axis=0), None
    mx, logs = _log_table(absx)
    terms = np.exp(logs * ps)
    terms *= w[:, None]
    sums = terms.sum(axis=0)
    out = sums ** (1.0 / ps)
    np.sqrt(sums, out=out, where=ps == 2.0)  # as _root_stage roots every p = 2
    out *= mx
    return out, logs


def _root_stage(logs: np.ndarray, mx: np.ndarray, w: np.ndarray,
                ps: np.ndarray) -> np.ndarray:
    """``M * (sum_j w[j] * exp(p * logs[j]))**(1/p)``: the exp/sum/root half
    of ``_finite_norms`` for finite exponents ``ps``."""
    terms = ps[..., None] * logs[:, None, :]
    np.exp(terms, out=terms)
    terms *= w
    sums = terms.sum(axis=-1)
    out = sums ** (1.0 / ps)
    # numpy roots a lone exponent 2 with the correctly rounded sqrt but
    # several with pow; sqrt for every p = 2 keeps each norm independent of
    # which exponents share the call
    two = ps == 2.0
    if two.any():
        np.sqrt(sums, out=out, where=two)
    out *= mx
    return out


def lp_norm_table(values, weights, ps) -> np.ndarray:
    """Weighted p-norms of one or many value vectors at many exponents.

    ``values`` has shape ``(n,)`` or ``(m, n)``; the result has shape
    ``(len(ps),)`` or ``(m, len(ps))``.  Exponents must be >= 1 and may be
    INFINITY.
    """
    V = np.asarray(values, dtype=float)
    ps = np.asarray(ps, dtype=float).ravel()
    if np.any(np.isnan(ps)) or np.any(ps < 1.0):
        raise ValueError("lp_norm_table requires exponents >= 1")
    out = _row_norms(np.atleast_2d(V), np.asarray(weights, dtype=float), ps)
    return out[0] if V.ndim == 1 else out


def lp_norm(f: GridFunction, p: float) -> float:
    """Weighted Lebesgue-Riesz norm of ``f`` at exponent ``p``.

    Returns ``(sum_j w[j] |f[j]|**p)**(1/p)``; at ``p = INFINITY`` the
    maximum of ``|f|`` over the (everywhere positively weighted) points.
    """
    return float(lp_norm_table(f.values, f.space.weights, [p])[0])


def tail_function(f: GridFunction, t: float) -> float:
    """Measure of the level set ``{ j : |f[j]| >= t }``."""
    t = float(t)
    if math.isnan(t) or t < 0.0:
        raise ValueError("threshold t must be >= 0")
    mask = np.abs(f.values) >= t
    return float(math.fsum(f.space.weights[mask].tolist()))


def grid_function_from_spec(spec: dict) -> GridFunction:
    """Build a GridFunction from ``{"values": [...], "weights": [...]}``.

    ``weights`` is optional and defaults to the counting measure.
    """
    if not isinstance(spec, dict) or "values" not in spec:
        raise ValueError('grid function spec needs a "values" list')
    values = _spec_numbers(spec["values"], 'grid function spec "values"')
    if "weights" in spec and spec["weights"] is not None:
        space = MeasureSpace(_spec_numbers(spec["weights"], 'grid function spec "weights"'))
    else:
        space = MeasureSpace.counting(values.size)
    return GridFunction(space, values)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _spec_numbers(raw, label: str) -> np.ndarray:
    """The list ``raw`` as floats; booleans, strings and other non-numbers
    are rejected rather than coerced.  ``label`` names the field."""
    if not isinstance(raw, (list, tuple)) or not all(_is_number(x) for x in raw):
        raise ValueError(f"{label} must be a list of numbers")
    return _spec_array(raw, label)


def _spec_matrix(raw, label: str) -> np.ndarray:
    """The list of rows ``raw`` as a 2-d float array, by the rule of
    ``_spec_numbers``; no rows, or rows of different lengths, are rejected."""
    if not (isinstance(raw, (list, tuple)) and raw
            and all(isinstance(r, (list, tuple)) and all(_is_number(x) for x in r)
                    for r in raw)
            and len({len(r) for r in raw}) == 1):
        raise ValueError(f"{label} must be a non-empty list of equal-length "
                         "rows of numbers")
    return _spec_array(raw, label)


def _spec_number(raw, label: str) -> float:
    """The number ``raw`` as a float, by the rule of ``_spec_numbers``."""
    if not _is_number(raw):
        raise ValueError(f"{label} must be a number")
    return float(_spec_array(raw, label))


def _spec_array(raw, label: str) -> np.ndarray:
    try:
        return np.array(raw, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{label} must be finite") from None


def load_grid_function(path) -> GridFunction:
    with open(Path(path), "r", encoding="utf-8") as fh:
        return grid_function_from_spec(json.load(fh))
