"""Magic squares as operators: constructors, validator, and the exact-norm
convention experiment.

A magic square here is a nonnegative matrix whose row sums, column sums,
main diagonal and anti-diagonal all equal one constant line sum.  The
closed form ``alpha * n**(1/q - 1/p)`` for the q->p operator norm depends
on which measure normalization and which exponent ordering one adopts;
``check_super_exact`` measures all four combinations against the brute
force oracle and reports which of them realizes the formula instead of
asserting one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import MeasureSpace, _spec_matrix, as_exponent
from .opnorm import MatrixOperator, inv_exponent, op_norm_oracle_table


@dataclass(frozen=True)
class MagicSquare:
    entries: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("a magic square must be a square matrix")
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True)
class LineCheck:
    label: str
    total: float
    deviation: float


@dataclass(frozen=True)
class MagicReport:
    ok: bool
    alpha: float
    nonnegative: bool
    lines: tuple
    tol: float

    def failures(self) -> list:
        return [line for line in self.lines if line.deviation > self.tol]


def validate_magic(entries, rel_tol: float = 1e-12) -> MagicReport:
    """Check nonnegativity and the 2n+2 line sums of a square matrix."""
    e = np.asarray(entries, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ValueError("validate_magic requires a square matrix")
    n = e.shape[0]
    sums = [(f"row {i}", float(e[i].sum())) for i in range(n)]
    sums += [(f"col {j}", float(e[:, j].sum())) for j in range(n)]
    sums.append(("diag", float(np.trace(e))))
    sums.append(("antidiag", float(np.trace(np.fliplr(e)))))
    alpha = math.fsum(s for _, s in sums) / len(sums)
    tol = rel_tol * max(abs(alpha), 1.0)
    lines = tuple(LineCheck(label, total, abs(total - alpha)) for label, total in sums)
    nonneg = bool(np.all(e >= 0.0))
    ok = nonneg and all(line.deviation <= tol for line in lines)
    return MagicReport(ok, alpha, nonneg, lines, tol)


def make_uniform_magic(n: int, alpha: float) -> MagicSquare:
    """All entries alpha/n; the trivial magic square of any order."""
    n = int(n)
    alpha = float(alpha)
    if n < 1:
        raise ValueError("order must be >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return MagicSquare(np.full((n, n), alpha / n), alpha)


def make_siamese(n: int) -> MagicSquare:
    """Classical odd-order construction: walk up-right with wraparound,
    drop down one cell when blocked."""
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("the up-right construction needs an odd order >= 3")
    board = np.zeros((n, n))
    r, c = 0, n // 2
    board[r, c] = 1.0
    for k in range(2, n * n + 1):
        nr, nc = (r - 1) % n, (c + 1) % n
        if board[nr, nc] != 0.0:
            nr, nc = (r + 1) % n, c
        r, c = nr, nc
        board[r, c] = float(k)
    return MagicSquare(board, n * (n * n + 1) / 2.0)


def make_doubly_even(n: int) -> MagicSquare:
    """Complement-pattern construction for orders divisible by 4."""
    n = int(n)
    if n < 4 or n % 4 != 0:
        raise ValueError("the complement construction needs an order divisible by 4")
    board = np.arange(1, n * n + 1, dtype=float).reshape(n, n)
    i, j = np.indices((n, n))
    flip = (i % 4 == j % 4) | ((i % 4) + (j % 4) == 3)
    board[flip] = n * n + 1 - board[flip]
    return MagicSquare(board, n * (n * n + 1) / 2.0)


def entries_from_spec(spec: dict) -> np.ndarray:
    """The ``entries`` of a magic square spec as a float matrix; entries
    must be JSON numbers, not booleans or strings."""
    if not isinstance(spec, dict) or "entries" not in spec:
        raise ValueError('magic square spec needs an "entries" list of rows')
    return _spec_matrix(spec["entries"], 'magic square spec "entries"')


def square_from_spec(spec: dict) -> MagicSquare:
    entries = entries_from_spec(spec)
    report = validate_magic(entries)
    if not report.ok:
        raise ValueError("entries do not form a nonnegative magic square")
    return MagicSquare(entries, report.alpha)


def square_to_spec(square: MagicSquare) -> dict:
    return {"entries": [[float(x) for x in row] for row in square.entries]}


def to_operator(square: MagicSquare, convention: str = "counting") -> MatrixOperator:
    """Operator with uniform weights 1 ("counting") or 1/n ("normalized")
    on both sides."""
    if convention == "counting":
        space = MeasureSpace.counting(square.n)
    elif convention == "normalized":
        space = MeasureSpace.normalized(square.n)
    else:
        raise ValueError(f"unknown measure convention {convention!r}")
    return MatrixOperator(square.entries, space, space)


def magic_norm_formula(n: int, alpha: float, q: float, p: float) -> float:
    """Closed form ``alpha * n**(1/q - 1/p)`` for 1 <= q <= p <= inf."""
    q = as_exponent(q)
    p = as_exponent(p)
    if q > p:
        raise ValueError("the closed form is stated for q <= p only")
    return float(alpha) * float(n) ** (inv_exponent(q) - inv_exponent(p))


@dataclass(frozen=True)
class ConventionRow:
    q: float
    p: float
    convention: str
    ordering: str
    source_exponent: float
    target_exponent: float
    oracle: float
    formula: float
    rel_gap: float
    match: bool


@dataclass(frozen=True)
class ConventionReport:
    n: int
    alpha: float
    rows: tuple
    match_tol: float

    def matches(self) -> list:
        return [row for row in self.rows if row.match]


def check_super_exact(square: MagicSquare, pairs: Sequence[tuple],
                      conventions: Sequence[str] = ("counting", "normalized"),
                      resolution: int = 240, match_tol: float = 1e-3) -> ConventionReport:
    """Oracle norms of a magic square against the closed form, for both
    measure conventions and both exponent orderings of each pair.

    The formula column is ``alpha * n**(1/q - 1/p)`` with q <= p (the
    canonical pair ordering); only the oracle's source/target roles swap
    between the two ordering rows.  Report-producing: no combination is
    asserted, the MATCH column records which realize the formula.
    """
    report = validate_magic(square.entries)
    if not report.ok:
        raise ValueError("check_super_exact requires a valid magic square")
    alpha = square.alpha
    n = square.n
    pairs = [tuple(sorted((as_exponent(raw_q), as_exponent(raw_p))))
             for raw_q, raw_p in pairs]
    exponents = sorted({e for pair in pairs for e in pair})
    tables = {convention: op_norm_oracle_table(to_operator(square, convention),
                                               exponents, exponents,
                                               resolution=resolution)
              for convention in conventions}
    rows = []
    for q, p in pairs:
        formula = magic_norm_formula(n, alpha, q, p)
        for convention in conventions:
            for ordering, src, tgt in (("q->p", q, p), ("p->q", p, q)):
                oracle = tables[convention][(src, tgt)]
                gap = abs(oracle - formula) / formula
                rows.append(ConventionRow(q, p, convention, ordering, src, tgt,
                                          oracle, formula, gap, gap <= match_tol))
    return ConventionReport(n, alpha, tuple(rows), match_tol)
