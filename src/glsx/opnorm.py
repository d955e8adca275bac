"""Matrix operators between weighted discrete Lq and Lp spaces.

Norm estimation comes in two independent flavors:

* ``op_norm_lower`` is exact at the corner pairs q = 1, p = INFINITY,
  q = INFINITY, p = 1 and 2 -> 2, where a closed form puts the norm in a
  small witness block: the basis vectors, the duality maps of the rows, the
  source sign vectors, the duality maps of ``A^T mu s`` over the target
  sign vectors s, or the top singular vector.  A signed operator with more
  than 4,096 sign vectors on the side a sign form needs runs the ascent
  there.  Elsewhere it runs an alternating duality-map ascent (a nonlinear
  power iteration) from many starts; a signed operator adds the pullbacks
  of its target sign and basis vectors.  Every value is a computed ratio,
  so the result is a certified LOWER bound of the true operator norm.
  An ascent batch runs in groups whose columns share the exponent class
  (1, INFINITY or finite) of q and that of p, so each step evaluates one
  formula per side; the target norm and duality map share one log table
  per product, and start blocks are cached per integer seed (see
  ``_ascent_batch``).
* ``op_norm_oracle`` brute-forces the unit sphere of the source space with
  a dense angular grid, then polishes each pair's grid argmax with the same
  ascent.  It is restricted to small sources and is the reference the
  ascent is checked against: its start comes from the grid, not from the
  ascent's start set, so agreement shows that those starts reach the
  global basin, and at the corner pairs that the closed forms hold.

A column's norms and products have the same bits whatever else shares its
call, on sources and targets of up to 12 points (see ``_ascent_batch``):
one-row products are summed term by term (``_term_products``), and wider
ones use matmul, a lone column as one of two copies.

``minimal_constant`` runs the same ascent over a grid of exponent pairs; it
is the constant of the extrapolation inequality.  Where the nesting of Lp
norms puts the maximum at one end of an exponent axis (atoms of weight at
least 1 with ``sigma >= 1``, or total mass at most 1 with ``sigma <= 1``),
that axis collapses to its end, so counting measures with ``sigma >= 1``
run the corner pair ``(p_min, q_max)`` alone.  ``verify_theorem1`` checks
that inequality for grand norms: it builds sup-kind moment norms on the two
exponent grids and runs the engine ``glsx.mri.verify_theorem2``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .genfun import ExponentInterval, GeneratingFunction
from .gls import _TINY, PGrid, exponent_grid, grid_from_points
from .measure import (INFINITY, GridFunction, MeasureSpace, _col_norms, _log_table,
                      _row_norms, _spec_matrix, _spec_numbers, as_exponent,
                      is_infinite)


def inv_exponent(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if is_infinite(p) else 1.0 / p


@dataclass(frozen=True)
class MatrixOperator:
    """Matrix acting from functions on ``source`` to functions on ``target``."""

    entries: np.ndarray
    source: MeasureSpace
    target: MeasureSpace

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValueError("entries must be a 2-d matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        if e.shape != (self.target.size, self.source.size):
            raise ValueError(
                f"entries shape {e.shape} does not match target size "
                f"{self.target.size} and source size {self.source.size}"
            )
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @classmethod
    def on_counting(cls, entries) -> "MatrixOperator":
        e = np.asarray(entries, dtype=float)
        return cls(e, MeasureSpace.counting(e.shape[1]), MeasureSpace.counting(e.shape[0]))

    @classmethod
    def identity(cls, n: int) -> "MatrixOperator":
        return cls.on_counting(np.eye(int(n)))

    @property
    def shape(self) -> tuple:
        return self.entries.shape

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.entries >= 0.0))


def operator_from_spec(spec: dict) -> MatrixOperator:
    """Parse ``{"entries": [[...]], "mu": [...], "nu": [...]}``.

    ``mu`` weights the target space, ``nu`` the source; both default to the
    counting measure.
    """
    if not isinstance(spec, dict) or "entries" not in spec:
        raise ValueError('matrix spec needs an "entries" list of rows')
    e = _spec_matrix(spec["entries"], 'matrix spec "entries"')

    def space(name: str, size: int) -> MeasureSpace:
        if spec.get(name) is None:
            return MeasureSpace.counting(size)
        return MeasureSpace(_spec_numbers(spec[name], f'matrix spec "{name}"'))

    return MatrixOperator(e, space("nu", e.shape[1]), space("mu", e.shape[0]))


def apply(A: MatrixOperator, g: GridFunction) -> GridFunction:
    """Matrix application ``(Ag)_i = sum_j a(i, j) g_j``."""
    if g.space.size != A.source.size or not np.array_equal(g.space.weights, A.source.weights):
        raise ValueError("function lives on a different space than the operator source")
    return GridFunction(A.target, A.entries @ g.values)


#: exponent classes of one batch side, each with its own duality-map formula
_FINITE, _ONE, _INF = 0, 1, 2


def _exponent_classes(ec: np.ndarray) -> np.ndarray:
    """The class of each exponent in ``ec``."""
    return np.where(ec == 1.0, _ONE, np.where(np.isinf(ec), _INF, _FINITE))


def _dual_target(H: np.ndarray, logs: Optional[np.ndarray], w: np.ndarray,
                 pa: np.ndarray, cls: int) -> np.ndarray:
    """Columnwise ascent direction of the weighted p-norm at H (unscaled),
    for exponents ``pa`` of class ``cls``; ``logs`` is H's log table."""
    if cls == _ONE:
        return w[:, None] * np.sign(H)
    if cls == _INF:
        k, j = np.abs(H).argmax(axis=0), np.arange(H.shape[1])
        U = np.zeros_like(H)
        U[k, j] = np.sign(H[k, j])
        return U
    return w[:, None] * np.exp(logs * (pa - 1.0)) * np.sign(H)


def _dual_source(Z: np.ndarray, w: np.ndarray, qa: np.ndarray, cls: int) -> np.ndarray:
    """Columnwise maximizer of <z, g> over the weighted q-unit sphere, for
    exponents ``qa`` of class ``cls``."""
    if cls == _ONE:
        k, j = (np.abs(Z) / w[:, None]).argmax(axis=0), np.arange(Z.shape[1])
        s = np.sign(Z[k, j])
        G = np.zeros_like(Z)
        G[k, j] = np.where(s == 0.0, 1.0, s) / w[k]
        return G
    if cls == _INF:
        return np.where(Z < 0.0, -1.0, 1.0)
    logs = _log_table(np.abs(Z) / w[:, None])[1]
    B = np.exp(logs * (1.0 / (qa - 1.0))) * np.sign(Z)
    norms = _col_norms(B, w, qa, False)[0]
    return B / np.where(norms == 0.0, 1.0, norms)


def _ratios(H: np.ndarray, G: np.ndarray, mu: np.ndarray, nu: np.ndarray,
            qa: np.ndarray, pa: np.ndarray, q_inf: bool, p_inf: bool) -> tuple:
    """Columnwise ratios ``|H|_p / |G|_q`` of products ``H = A G`` (0 for a
    zero column of G), and H's log table (``None`` if ``p_inf``);
    ``q_inf`` and ``p_inf`` say whether a side's exponents are INFINITY."""
    gn = _col_norms(G, nu, qa, q_inf)[0]
    hn, logs = _col_norms(H, mu, pa, p_inf)
    return hn / np.where(gn > 0.0, gn, INFINITY), logs


def _term_products(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ X`` summed term by term in source order, so that the bits of a
    column do not depend on which other columns share the call."""
    out = M[:, :1] * X[:1]
    for j in range(1, M.shape[1]):
        out += M[:, j:j + 1] * X[j:j + 1]
    return out


def _ascent_batch(E: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                  G: np.ndarray, qc: np.ndarray, pc: np.ndarray,
                  tol: float, max_iter: int) -> tuple:
    """Duality-map ascent over many columns at once; column c maximizes the
    qc[c] -> pc[c] ratio.  Returns (best ratios, best witnesses).  It is
    the one ascent of ``op_norm_lower``, ``minimal_constant`` and the
    oracle's polish.

    Columns run independently; a column retires when its ratio stagnates
    below ``tol``, when it stops improving for three steps (dual-map
    two-cycles at the corner exponents), or when its pullback dies.

    The columns are split by the exponent classes (1, INFINITY or finite)
    of their q and p, and each group runs its own class-uniform ascent
    (``_uniform_ascent``), so a step evaluates one formula per side, and
    the target norm and duality map share one ``log(|H|/M)`` table.

    A column's value and witness do not depend on which columns, exponent
    classes or batch sizes share the call.  ``measure._col_norms`` gives
    each column the kernel's bits.  BLAS takes a single column through
    gemv, which rounds differently from gemm, so a lone column goes through
    gemm as one of two copies; a gemm column's bits do not depend on the
    other columns for contraction lengths up to 12 (tested with OpenBLAS
    on one thread; at 16 they do), which bounds the promise to sources and
    targets of up to 12 points.  numpy's vector path for a product with one
    output row rounds by batch width, so those are summed term by term.
    """
    group = 3 * _exponent_classes(qc) + _exponent_classes(pc)
    best, best_G = np.zeros(G.shape[1]), np.empty(G.shape)
    for key in np.unique(group):
        cols = np.flatnonzero(group == key)
        best[cols], best_G[:, cols] = _uniform_ascent(
            E, mu, nu, G[:, cols], qc[cols], pc[cols], key // 3, key % 3, tol, max_iter)
    return best, best_G


def _uniform_ascent(E: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                    G: np.ndarray, qc: np.ndarray, pc: np.ndarray, q_cls: int,
                    p_cls: int, tol: float, max_iter: int) -> tuple:
    """``_ascent_batch`` for columns whose q are all of class ``q_cls`` and
    whose p are all of class ``p_cls``."""
    def product(M: np.ndarray, X: np.ndarray) -> np.ndarray:
        if M.shape[0] == 1:
            return _term_products(M, X)
        if X.shape[1] == 1:
            return (M @ X.repeat(2, axis=1))[:, :1]
        return M @ X

    q_inf, p_inf = q_cls == _INF, p_cls == _INF
    n_cols = G.shape[1]
    best = np.zeros(n_cols)
    prev = np.full(n_cols, -1.0)
    no_improve = np.zeros(n_cols, dtype=int)
    idx = np.arange(n_cols)
    with np.errstate(divide="ignore"):  # log(0) = -inf
        g0 = _col_norms(G, nu, qc, q_inf)[0]
        G = G / np.where(g0 > 0.0, g0, 1.0)
        best_G = G.copy()
        for _ in range(int(max_iter)):
            Ga = G[:, idx]
            qa, pa = qc[idx], pc[idx]
            H = product(E, Ga)
            ratio, logs = _ratios(H, Ga, mu, nu, qa, pa, q_inf, p_inf)

            improved = ratio > best[idx]
            cols = idx[improved]
            best_G[:, cols] = Ga[:, improved]
            best[cols] = ratio[improved]
            no_improve[idx] = np.where(improved, 0, no_improve[idx] + 1)

            stalled = np.abs(ratio - prev[idx]) <= tol * np.maximum(ratio, 1.0)
            prev[idx] = ratio
            keep = ~stalled & (no_improve[idx] < 3)
            if not keep.any():
                break
            logs = None if logs is None else logs[:, keep]
            U = _dual_target(H[:, keep], logs, mu, pa[keep], p_cls)
            Z = product(E.T, U)
            alive = np.abs(Z).max(axis=0) > 0.0
            idx = idx[keep][alive]
            if idx.size == 0:
                break
            G[:, idx] = _dual_source(Z[:, alive], nu, qc[idx], q_cls)
    return best, best_G


def _ascent_starts(n: int, restarts: int, seed) -> np.ndarray:
    """Distinct ascent starts, one per column, in first-occurrence order.

    The block is the constant vector, the basis vectors and ``restarts``
    seeded random sign vectors; a column equal to an earlier one is dropped.
    A small source has few sign vectors (2**n), and a repeated start would
    retrace its twin's ascent bit for bit (``_ascent_batch`` is
    batch-invariant), so dropping it changes no best value or witness and
    saves its work.  The block is read-only.  An integer seed's blocks come
    from a small cache; any other seed (``None``, a list, a
    ``SeedSequence`` or a ``Generator``) may be random or unhashable.
    """
    if isinstance(seed, (int, np.integer)):
        return _cached_starts(n, restarts, seed)
    rng = np.random.default_rng(seed)
    # the draws of rng.choice([-1.0, 1.0], size) at half the cost
    signs = 2.0 * rng.integers(0, 2, size=(n, int(restarts))) - 1.0
    G = np.hstack([np.ones((n, 1)), np.eye(n), signs])
    # a dict of column bytes costs less than np.unique for so few columns
    raw, width = G.T.tobytes(), 8 * n
    first = {}
    for j in range(G.shape[1]):
        first.setdefault(raw[j * width:(j + 1) * width], j)
    starts = G[:, list(first.values())]
    starts.flags.writeable = False
    return starts


@functools.lru_cache(maxsize=32)
def _cached_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """``default_rng(SeedSequence(seed))`` draws what ``default_rng(seed)`` does."""
    return _ascent_starts(n, restarts, np.random.SeedSequence(seed))


#: most sign vectors a corner witness block or the pullback starts enumerate
#: (2**(n-1) at n = 13).  The INFINITY -> 1 norm is NP-hard (Rohn 2000), so a
#: larger signed operator runs the ascent there.  Near the cap the pullbacks
#: dominate: ``minimal_constant`` of a signed 13 x 3 operator on 17 x 17 grids
#: takes 11-12 s, against 0.2 s without them (one x86-64 core)
_SIGN_CAP = 4096
#: most ascent columns of one ``minimal_constant`` batch, to bound its memory
_BATCH_COLUMNS = 1 << 15


@functools.lru_cache(maxsize=16)
def _sign_vectors(n: int) -> np.ndarray:
    """The 2**(n-1) sign vectors of length n whose first entry is 1, as
    read-only columns in ``itertools.product`` order (s and -s give the
    same ratio)."""
    S = np.array([s for s in itertools.product((1.0, -1.0), repeat=n)
                  if s[0] == 1.0]).T
    S.flags.writeable = False
    return S


def _pullback_starts(A: MatrixOperator) -> np.ndarray:
    """Nonzero pullbacks ``A^T mu y`` of the 2**(m-1) target sign vectors
    (up to ``_SIGN_CAP`` of them) and of the m target basis vectors y."""
    m = A.target.size
    Y = np.eye(m) if 2 ** (m - 1) > _SIGN_CAP else np.hstack([_sign_vectors(m), np.eye(m)])
    P = A.entries.T @ (A.target.weights[:, None] * Y)
    return P[:, np.abs(P).max(axis=0) > 0.0]


def _corner_witnesses(A: MatrixOperator, q: float, p: float) -> Optional[np.ndarray]:
    """Columns among which the q -> p ratio of a nonzero ``A`` attains the
    norm, when a closed form says so (see ``op_norm_lower``); else ``None``."""
    E, mu, nu = A.entries, A.target.weights, A.source.weights
    (m, n), signed = E.shape, not A.is_nonnegative()

    def dual(Z: np.ndarray) -> np.ndarray:  # maximizers of <z, g> on the q-sphere
        qa = np.full(Z.shape[1], q)
        with np.errstate(divide="ignore"):  # log(0) = -inf
            return _dual_source(Z, nu, qa, _exponent_classes(qa)[0])

    if q == 1.0:
        return np.diag(1.0 / nu)
    if is_infinite(p):
        return dual(E.T)
    if q == 2.0 and p == 2.0:
        B = np.sqrt(mu)[:, None] * E / np.sqrt(nu)
        v = np.linalg.svd(B, full_matrices=False)[2][0]
        return (v / np.sqrt(nu))[:, None]
    if is_infinite(q) and (not signed or 2 ** (n - 1) <= _SIGN_CAP):
        return _sign_vectors(n) if signed else np.ones((n, 1))
    if p == 1.0 and (not signed or 2 ** (m - 1) <= _SIGN_CAP):
        S = _sign_vectors(m) if signed else np.ones((m, 1))
        return dual(E.T @ (mu[:, None] * S))
    return None


@dataclass(frozen=True)
class AscentResult:
    """``exact`` marks a closed-form corner value: the norm up to rounding."""

    value: float
    witness: GridFunction
    zero_matrix: bool = False
    exact: bool = False

    def __float__(self) -> float:
        return self.value


def op_norm_lower(A: MatrixOperator, q: float, p: float, restarts: int = 32,
                  seed: int = 0, tol: float = 1e-12, max_iter: int = 200) -> AscentResult:
    """Certified lower bound on the q->p operator norm: a closed form at the
    corner pairs, duality ascent elsewhere.

    The value is always the computed ratio at the returned witness, so it
    never exceeds the true norm.  At a corner pair the norm is attained
    within a small witness block (Higham 2002, ch. 6), and the result is
    marked ``exact``:

    * q = 1: the basis vectors (the largest weighted column norm);
    * p = INFINITY: the duality maps of the rows (the largest dual row norm);
    * q = 2 = p: the top right singular vector of
      ``diag(sqrt(mu)) A diag(1/sqrt(nu))``;
    * q = INFINITY: the 2**(n-1) source sign vectors (a convex function
      peaks at a vertex of the cube), or the constant vector when A >= 0;
    * p = 1: the duality maps of ``A^T mu s`` over the 2**(m-1) target sign
      vectors s, or s = 1 alone when A >= 0.

    The sign-vector forms apply to signed operators only up to ``_SIGN_CAP``
    (4,096) sign vectors; above it those pairs run the ascent.

    The ascent starts from the constant vector, every basis vector, and
    ``restarts`` seeded random sign vectors; a start drawn twice runs once
    (see ``_ascent_starts``).  A signed operator adds the pullback starts
    ``A^T mu y`` of the target sign and basis vectors y
    (``_pullback_starts``), which reach basins the others can miss.  Each
    start alternates a target-norm duality step, a transpose pullback, and
    a source-sphere projection until the ratio stagnates below ``tol``.  The
    best ratio ever seen (with its witness) is returned.
    """
    q = as_exponent(q)
    p = as_exponent(p)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n_y = A.source.size
    G = _ascent_starts(n_y, restarts, seed)  # validates the seed
    if not A.entries.any():
        return AscentResult(0.0, GridFunction(A.source, np.zeros(n_y)), True)
    E, mu, nu = A.entries, A.target.weights, A.source.weights
    W = _corner_witnesses(A, q, p)
    if W is not None:
        qa, pa = np.full(W.shape[1], q), np.full(W.shape[1], p)
        with np.errstate(divide="ignore"):  # log(0) = -inf
            ratio = _ratios(E @ W, W, mu, nu, qa, pa, is_infinite(q), is_infinite(p))[0]
        k = int(np.argmax(ratio))
        return AscentResult(float(ratio[k]), GridFunction(A.source, W[:, k].copy()),
                            exact=True)
    if not A.is_nonnegative():
        G = np.hstack([G, _pullback_starts(A)])
    qc, pc = np.full((2, G.shape[1]), [[q], [p]])
    best, best_G = _ascent_batch(E, mu, nu, G, qc, pc, tol, max_iter)
    k = int(np.argmax(best))
    return AscentResult(float(best[k]), GridFunction(A.source, best_G[:, k].copy()))


@functools.lru_cache(maxsize=8)
def _oracle_directions(n: int, resolution: int) -> np.ndarray:
    """Read-only nonnegative unit directions of an n-dimensional source, one
    per column: the spherical map of the ``(resolution,) * (n-1)`` grid of
    angles on [0, pi/2], in C order.  Coordinate i is ``cos(a_i)`` times
    the product of the earlier sines; the last has no cosine."""
    if n == 1:
        G = np.ones((1, 1))
    else:
        theta = np.linspace(0.0, math.pi / 2.0, int(resolution))
        angles = np.reshape(np.meshgrid(*[theta] * (n - 1), indexing="ij"),
                            (n - 1, -1))
        G = np.ones((n, angles.shape[1]))
        np.cos(angles, out=G[:-1])
        sines = np.sin(angles)
        G[1:] *= np.cumprod(sines, axis=0, out=sines)
    G.flags.writeable = False
    return G


@functools.lru_cache(maxsize=32)
def _oracle_qnorms(n: int, resolution: int, nu: bytes, q: float) -> tuple:
    """Read-only q-norms of the direction grid under the source weights
    (``nu.tobytes()``) and their minimum per grid block (see
    ``_oracle_blocks``)."""
    qn = _row_norms(_oracle_directions(n, resolution).T, np.frombuffer(nu),
                    np.array([q]))[:, 0]
    qmin = qn.reshape((resolution,) * (n - 1))
    starts = np.arange(0, resolution, _BLOCK)
    for axis in range(qmin.ndim):
        qmin = np.minimum.reduceat(qmin, starts, axis=axis)
    qmin = qmin.ravel()
    qn.flags.writeable = qmin.flags.writeable = False
    return qn, qmin


#: elements of the kernel's (columns, exponents, target) temporary per chunk
#: of the oracle grid pass: 1 MB, which ran faster than smaller or larger
#: chunks and keeps the pass far below the memory of one unchunked call
_GRID_CHUNK = 1 << 17
#: grid indices per axis of one block of the pruned grid pass (8,100 blocks
#: at n = 3, resolution 720).  Smaller blocks have tighter bounds but more
#: per-block work; 6 to 12 ran about equally fast on random 3x3 tables at
#: resolution 720, and 4 or 16 slower
_BLOCK = 8
#: relative widening of the block bound.  The kernel keeps a norm within
#: about 1e-13 of its exact value on normal floats (see ``gls._CHORD_SLACK``),
#: and the bound adds a few roundings more; 1e-9 leaves four orders of margin
_BLOCK_SLACK = 1e-9
#: absolute widening (radians) of the block radius: the products ``Es @ g``
#: and the grid directions round by about ``n * eps * L_p`` in absolute
#: terms, which the relative slack alone covers only for radii above 1e-6
_RADIUS_PAD = 1e-12
_HUGE = float(np.finfo(float).max)


@functools.lru_cache(maxsize=8)
def _oracle_blocks(n: int, resolution: int) -> tuple:
    """Blocks of ``_BLOCK`` indices per axis of the ``(resolution,) * (n-1)``
    direction grid, in C order (the last block of an axis may be shorter).

    Returns, per block, the flat grid index of its representative (its
    middle index) and its radius ``sqrt(sum_i off_i**2)`` in index units,
    where ``off_i`` is the largest index offset from the representative
    along axis ``i``, and the block lengths along one axis.
    """
    starts = np.arange(0, resolution, _BLOCK)
    lengths = np.minimum(_BLOCK, resolution - starts)
    reps = np.zeros((), dtype=np.intp)
    radius2 = np.zeros(())
    for _ in range(n - 1):
        reps = reps[..., None] * resolution + starts + lengths // 2
        radius2 = radius2[..., None] + (lengths // 2) ** 2
    return reps.ravel(), np.sqrt(radius2.ravel()), lengths


def _grid_survivors(Es: np.ndarray, base: np.ndarray, mu: np.ndarray,
                    nu: np.ndarray, p_vals: np.ndarray, qn: list,
                    best: np.ndarray, resolution: int,
                    step: float) -> Optional[np.ndarray]:
    """Ascending grid indices of the blocks that could hold the grid argmax
    of some (q, p) pair for the sign pattern applied in ``Es``; ``None``
    when every block could.

    Per block b with representative direction ``g_b`` and radius ``r_b``,
    Minkowski and Cauchy-Schwarz bound every point k of the block by
    ``|Es g_k|_p <= |Es g_b|_p + r_b * L_p`` with
    ``L_p = sqrt(sum_j |Es e_j|_p**2)``: the spherical map is 1-Lipschitz
    from angles to R^n, so ``|g_k - g_b|_2 <= r_b``.  With ``r_b`` widened
    by ``_RADIUS_PAD``, divided by the block's smallest q-norm and widened
    by ``_BLOCK_SLACK``, this bounds the computed ratio.
    A block is skipped when its bound lies strictly below
    ``T = max(best, best representative ratio)`` for every pair: its points
    then neither beat nor tie the grid argmax of this pattern, nor ``best``.
    The slack is relative, so every block survives (``T = -inf``) unless
    every weight is at least ``tiny * (mass + size)`` and every
    representative norm and ``L_p`` is a finite normal float.  Products
    ``Es @ g`` are formed only for the representatives here, and by the
    caller only for the surviving columns, with ``_term_products``: a
    column's bits do not depend on which columns share the call, so the
    pruned pass gives the values of the full grid pass, bit for bit.  It
    evaluates about a tenth to a fifth of the columns on random 3x3
    operators, and all of them when a pair's ratio is flat (Lo Shu's
    1 -> 1 norm).
    """
    reps, radius, lengths = _oracle_blocks(Es.shape[1], resolution)
    rep_pn = _row_norms(_term_products(Es, base[:, reps]).T, mu, p_vals)  # (blocks, P)
    lip = np.sqrt((_row_norms(Es.T, mu, p_vals) ** 2).sum(axis=0))
    if not (all(w.min() >= (w.sum() + w.size) * _TINY for w in (mu, nu))
            and all(np.all((x >= _TINY) & (x <= _HUGE)) for x in (rep_pn, lip))):
        return None  # NaN fails both comparisons
    # (exponents, blocks): the kernel returns a tall C-ordered table, on
    # which the short-axis reductions below would run row by row
    rep_pn = np.ascontiguousarray(rep_pn.T)
    top = (rep_pn + lip[:, None] * (radius * step + _RADIUS_PAD)) * (1.0 + _BLOCK_SLACK)
    keep = np.zeros(reps.size, dtype=bool)
    for i, (qn_i, qmin_i) in enumerate(qn):
        T = np.maximum(best[i], (rep_pn / qn_i[reps]).max(axis=1))
        keep |= ~(top / qmin_i < T[:, None]).all(axis=0)  # NaN never skips
    if keep.all():
        return None
    mask = keep.reshape((lengths.size,) * (Es.shape[1] - 1))
    for axis in range(mask.ndim):
        mask = np.repeat(mask, lengths, axis=axis)
    return np.flatnonzero(mask)


def op_norm_oracle_table(A: MatrixOperator, qs: Sequence[float],
                         ps: Sequence[float], resolution: int = 720,
                         allow_large: bool = False, polish: bool = True) -> dict:
    """Brute-force q->p operator norms for every (q, p) pair at once.

    All pairs share the direction grid, its cached q-norms and the matrix
    products.  Per sign pattern, the grid pass forms products and runs the
    kernel only on the blocks of columns that could hold some pair's grid
    argmax (see ``_grid_survivors``).  One kernel call per chunk of those
    columns evaluates every distinct p, so ``log|Ag|`` is taken once and
    only ``exp`` repeats per exponent.  Each chunk, and after the grid the
    classical candidates (the constant and basis directions), fold into
    each pair's best value, direction and sign pattern; a value replaces
    the best only when strictly larger, so a tie keeps the earlier pattern,
    the grid over a candidate and the lower index.  The polish is one
    duality ascent (``_ascent_batch``, ``tol`` 1e-15, at most 500 steps)
    over every pair, each started from its best direction with its sign
    pattern applied; a pair keeps the larger of its grid and ascent
    values.  The ascent and the kernel are batch-invariant, so on sources
    and targets of up to 12 points a pair's value does not depend on which
    other pairs share the call.  The start is the grid argmax, not one of
    the ascent's own starts (``op_norm_lower``), so agreement of the two
    tests whether those standard starts reach the global basin.  Returns a
    dict keyed by (q, p).
    """
    qs = [as_exponent(qv) for qv in qs]
    ps = [as_exponent(p) for p in ps]
    n_y = A.source.size
    if n_y > 4 and not allow_large:
        raise ValueError("op_norm_oracle is limited to sources of size <= 4; "
                         "pass allow_large=True to override")
    if resolution < 2 and n_y > 1:
        raise ValueError("resolution must be >= 2")
    E, mu, nu = A.entries, A.target.weights, A.source.weights
    if not (E.any() and qs and ps):
        return {(qv, p): 0.0 for qv in qs for p in ps}

    res = int(resolution)
    base = _oracle_directions(n_y, res)
    q_vals = sorted(set(qs))
    p_vals = np.array(sorted(set(ps)))
    qn = [_oracle_qnorms(n_y, res, nu.tobytes(), qv) for qv in q_vals]

    patterns = np.ones((1, n_y)) if A.is_nonnegative() else _sign_vectors(n_y).T

    # classical extremizer candidates: the constant direction and every
    # basis direction (cube corners and spikes of the source unit balls)
    extra = np.hstack([np.ones((n_y, 1)) / math.sqrt(n_y), np.eye(n_y)])
    extra_qn = _row_norms(extra.T, nu, np.array(q_vals)).T

    # best value, direction and sign pattern per (q, p) over all patterns
    shape = (len(q_vals), p_vals.size)
    cols = np.arange(p_vals.size)
    best = np.full(shape, -1.0)
    start = np.zeros(shape + (n_y,))
    sign_of = np.zeros(shape, dtype=int)

    def take(pn: np.ndarray, qns, dirs: np.ndarray, s: int) -> None:
        """Fold the ratios of p-norms ``pn`` (p, column) to the q-norms
        ``qns[i]`` of the directions ``dirs`` into the running best."""
        vals = np.empty(pn.shape)  # row-major, so argmax runs along rows
        for i, qn_i in enumerate(qns):
            np.divide(pn, qn_i, out=vals)
            k = vals.argmax(axis=1)
            v = vals[cols, k]
            up = v > best[i]
            if up.any():
                best[i, up] = v[up]
                start[i, up] = dirs[:, k[up]].T
                sign_of[i, up] = s

    step = math.pi / 2.0 / (res - 1) if n_y > 1 else 0.0
    chunk = max(1, _GRID_CHUNK // (p_vals.size * E.shape[0]))
    for s, sign in enumerate(patterns):
        Es = E * sign[None, :]
        sel = _grid_survivors(Es, base, mu, nu, p_vals, qn, best, res, step)
        # survivors run in ascending grid index, so first-index ties hold
        for lo in range(0, base.shape[1] if sel is None else sel.size, chunk):
            at = slice(lo, lo + chunk) if sel is None else sel[lo:lo + chunk]
            dirs = base[:, at]
            pn = _row_norms(_term_products(Es, dirs).T, mu, p_vals).T
            take(pn, [qn_i[at] for qn_i, _ in qn], dirs, s)
        take(_row_norms((Es @ extra).T, mu, p_vals).T, extra_qn, extra, s)

    values = best.ravel()
    if polish and n_y > 1:
        G = (start * patterns[sign_of]).reshape(-1, n_y).T
        polished, _ = _ascent_batch(E, mu, nu, G, np.repeat(q_vals, p_vals.size),
                                    np.tile(p_vals, len(q_vals)), 1e-15, 500)
        values = np.maximum(values, polished)
    table = dict(zip(itertools.product(q_vals, p_vals.tolist()), values.tolist()))
    return {(qv, p): table[(qv, p)] for qv in qs for p in ps}


def op_norm_oracle(A: MatrixOperator, q: float, p: float, resolution: int = 720,
                   allow_large: bool = False, polish: bool = True) -> float:
    """Brute-force q->p operator norm over a dense angular grid.

    Nonnegative matrices are searched on the nonnegative orthant only
    (valid because ``|Ag| <= A|g|`` entrywise); otherwise every sign
    pattern of the source coordinates is combined with the nonnegative
    grid.  A duality ascent from the best grid or classical direction
    polishes the value.  This is the one-pair case of
    ``op_norm_oracle_table``, whose shared-log grid pass and batched polish
    give the same value for a pair whichever pairs share the call (sources
    and targets of up to 12 points), so several pairs of one operator are
    cheaper as one table.  The grid holds ``resolution**(n-1)`` directions,
    of which the pass evaluates those that a block bound cannot skip (see
    ``_grid_survivors``).  Sources larger than 4 are rejected unless
    ``allow_large`` is set.
    """
    table = op_norm_oracle_table(A, [q], [p], resolution=resolution,
                                 allow_large=allow_large, polish=polish)
    return table[(as_exponent(q), as_exponent(p))]


@dataclass
class OperatorBoundCertificate:
    """Claimed bound ``|Ag|_p <= C * sigma**(1/q - 1/p) * |g|_q`` on two
    exponent intervals; ``witnessed`` records a passed sampling check."""

    sigma: float
    C: float
    p_interval: ExponentInterval
    q_interval: ExponentInterval
    witnessed: bool = False

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be a positive finite real")
        if not (self.C > 0.0 and math.isfinite(self.C)):
            raise ValueError("C must be a positive finite real")


def _sampled_norms(A: MatrixOperator, p_pts: np.ndarray, q_pts: np.ndarray,
                   samples: int, seed) -> tuple:
    """Read-only ``(G, |AG|_p, |G|_q)`` on ``samples`` seeded normal rows, the
    constant and the basis functions.  Integer seeds go through a one-table
    cache; any other seed may be random or unhashable (as in ``_ascent_starts``)."""
    cached = isinstance(seed, (int, np.integer))
    p, q = (np.asarray(pts, dtype=float).tobytes() for pts in (p_pts, q_pts))
    return (_sampled_table if cached else _sampled_table.__wrapped__)(
        A.entries.tobytes(), A.shape, A.target.weights.tobytes(),
        A.source.weights.tobytes(), p, q, samples, int(seed) if cached else seed)


@functools.lru_cache(maxsize=1)  # the calls that share a table run back to back
def _sampled_table(E: bytes, shape: tuple, mu: bytes, nu: bytes, p: bytes, q: bytes,
                   samples: int, seed) -> tuple:
    if samples < 0:
        raise ValueError(f"samples (random test functions) must be >= 0, got {samples}")
    G = np.vstack([np.random.default_rng(seed).standard_normal((int(samples), shape[1])),
                   np.ones((1, shape[1])), np.eye(shape[1])])
    PN = _row_norms(G @ np.frombuffer(E).reshape(shape).T, np.frombuffer(mu),
                    np.frombuffer(p))
    QN = _row_norms(G, np.frombuffer(nu), np.frombuffer(q))
    G.flags.writeable = PN.flags.writeable = QN.flags.writeable = False
    return G, PN, QN


@dataclass(frozen=True)
class SigmaConditionReport:
    holds: bool
    worst_ratio: float
    worst_p: float
    worst_q: float
    worst_witness: tuple
    samples: int
    tol: float


def check_sigma_condition(A: MatrixOperator, cert: OperatorBoundCertificate,
                          p_grid: Sequence[float], q_grid: Sequence[float],
                          samples: int = 100, seed: int = 0,
                          tol: float = 1e-9) -> SigmaConditionReport:
    """Sample the certificate inequality on random functions and grid pairs.

    Sets ``cert.witnessed`` on success and reports the worst ratio of
    left- to right-hand side together with its witness.  A sampled norm or
    factor that is not finite (overflow) raises ``ValueError``.  Calls with the
    same operator, grids, samples and integer seed share one read-only sampled
    table with each other and with ``glsx.mri.verify_theorem2``.
    """
    p_pts = np.array([as_exponent(p) for p in p_grid])
    q_pts = np.array([as_exponent(qv) for qv in q_grid])
    for p in p_pts:
        if not (cert.p_interval.a <= p < cert.p_interval.b or is_infinite(p)):
            raise ValueError(f"p grid point {p} outside certificate interval")
    for qv in q_pts:
        if not (cert.q_interval.a <= qv < cert.q_interval.b or is_infinite(qv)):
            raise ValueError(f"q grid point {qv} outside certificate interval")

    G, PN, QN = _sampled_norms(A, p_pts, q_pts, samples, seed)  # PN (S, P), QN (S, Q)

    inv_p = np.array([inv_exponent(p) for p in p_pts])
    inv_q = np.array([inv_exponent(qv) for qv in q_pts])
    factor = cert.C * cert.sigma ** (inv_q[:, None] - inv_p[None, :])  # (Q, P)
    if not (np.isfinite(PN).all() and np.isfinite(QN).all() and np.isfinite(factor).all()):
        raise ValueError("a sampled norm or sigma factor is not finite "
                         "(overflow); the certificate cannot be checked")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = PN[:, None, :] / (factor[None, :, :] * QN[:, :, None])
    ratios[np.isnan(ratios)] = 0.0  # 0/0: both sides vanish
    s, qi, pi = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    worst = float(ratios[s, qi, pi])
    holds = worst <= 1.0 + tol
    cert.witnessed = bool(holds)
    return SigmaConditionReport(holds, worst, float(p_pts[pi]), float(q_pts[qi]),
                                tuple(float(x) for x in G[s]), int(G.shape[0]), tol)


@dataclass(frozen=True)
class MinimalConstantResult:
    value: float
    argmax_p: float
    argmax_q: float

    def __float__(self) -> float:
        return self.value


def _corner(pts: list, sigma: float, space: MeasureSpace, low: bool) -> list:
    """The sorted axis ``pts``, or the end of it that holds the maximum of
    ``minimal_constant`` (see there); ``low`` is the end for ``sigma >= 1``."""
    if sigma >= 1.0 and space.weights.min() >= 1.0:
        return pts[:1] if low else pts[-1:]
    if sigma <= 1.0 and space.total_mass <= 1.0:
        return pts[-1:] if low else pts[:1]
    return pts


def minimal_constant(A: MatrixOperator, sigma: float, p_grid: Sequence[float],
                     q_grid: Sequence[float], samples: int = 32,
                     seed: int = 0, tol: float = 1e-12,
                     max_iter: int = 200) -> MinimalConstantResult:
    """Lower bound of the minimal certificate constant
    ``sup_g sup_{p,q} sigma**(1/p - 1/q) |Ag|_p / |g|_q`` over the grids.

    An exponent axis whose maximizing end the nesting of Lp norms fixes is
    cut to that end, since every other point's true value lies below it; the
    result stays a certified lower bound of the grid maximum.  If every atom
    of a space weighs at least 1, its norms fall as the exponent grows, and
    for ``sigma >= 1`` so does ``sigma**(1/p - 1/q)`` in p (it rises in q);
    for total mass at most 1 and ``sigma <= 1`` both orders reverse (Hardy,
    Littlewood & Polya).  So the p axis keeps only ``p_min`` (``sigma >= 1``,
    target atoms at least 1) or only ``p_max`` (``sigma <= 1``, target mass
    at most 1), the q axis only ``q_max`` (``sigma >= 1``, source atoms at
    least 1) or only ``q_min`` (``sigma <= 1``, source mass at most 1), and
    any other axis keeps its whole grid.

    ``samples`` seeded random sign vectors join the constant and basis
    starts of the inner ascent of every remaining (q, p) pair, and a start
    drawn twice runs once (see ``_ascent_starts``); a signed operator adds
    the pullback starts, as ``op_norm_lower`` does.  The pairs share one
    start block; a batched ascent runs as many whole pairs as fit in
    ``_BATCH_COLUMNS`` columns, and at least one.  The ascent is
    batch-invariant (see ``_ascent_batch``), so on sources and targets of
    up to 12 points each pair gets the bits of its own ``op_norm_lower``
    ascent with the same seed.  Ties resolve toward the lexicographically
    smallest remaining (p, q); on a collapsed axis that is its corner.  The
    zero matrix reports 0 at the smallest (p, q) of the full grids.
    """
    sigma = float(sigma)
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError("sigma must be a positive finite real")
    if samples < 0:
        raise ValueError("samples (random ascent starts per pair) must be >= 0")
    p_pts = sorted(as_exponent(p) for p in p_grid)
    q_pts = sorted(as_exponent(qv) for qv in q_grid)
    if not (p_pts and q_pts):
        raise ValueError("p_grid and q_grid must each hold at least one exponent")
    if not A.entries.any():
        return MinimalConstantResult(0.0, p_pts[0], q_pts[0])
    p_pts = _corner(p_pts, sigma, A.target, low=True)
    q_pts = _corner(q_pts, sigma, A.source, low=False)
    pairs = [(p, qv) for p in p_pts for qv in q_pts]

    starts = _ascent_starts(A.source.size, samples, seed)
    if not A.is_nonnegative():
        starts = np.hstack([starts, _pullback_starts(A)])
    n_starts = starts.shape[1]
    per_pair, step = [], max(1, _BATCH_COLUMNS // n_starts)
    for chunk in (pairs[i:i + step] for i in range(0, len(pairs), step)):
        pc, qc = np.repeat(np.array(chunk).T, n_starts, axis=1)
        best, _ = _ascent_batch(A.entries, A.target.weights, A.source.weights,
                                np.tile(starts, len(chunk)), qc, pc, tol, max_iter)
        per_pair.extend(best.reshape(len(chunk), n_starts).max(axis=1))

    best_val = -INFINITY
    best_p = best_q = p_pts[0]
    for (p, qv), norm_val in zip(pairs, per_pair):
        val = sigma ** (inv_exponent(p) - inv_exponent(qv)) * norm_val
        if val > best_val:
            best_val, best_p, best_q = val, p, qv
    return MinimalConstantResult(float(best_val), float(best_p), float(best_q))


# ---------------------------------------------------------------------------
# grand-norm extrapolation check (the engine is glsx.mri.verify_theorem2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtrapolationReport:
    passed: bool
    samples: int
    violations: tuple
    max_lhs_rhs_ratio: float
    cbar: float
    phi_lhs: float
    phi_rhs: float
    sigma: float
    p_points: tuple
    q_points: tuple
    seed: int
    tol: float
    rhs_endpoint_flag: bool = False
    lhs_endpoint_flag: bool = False


def verify_theorem1(A: MatrixOperator, cert: OperatorBoundCertificate,
                    psi: GeneratingFunction, nu_gen: GeneratingFunction,
                    samples: int = 1000, seed: int = 0,
                    p_points: Optional[Sequence[float]] = None,
                    q_points: Optional[Sequence[float]] = None,
                    cbar: Optional[float] = None, restarts: int = 32,
                    grid_points: int = 17, tol: float = 1e-8) -> ExtrapolationReport:
    """Check the grand-norm extrapolation inequality on sampled functions.

    The sup-kind case of ``glsx.mri.verify_theorem2``: the left norm is the
    grand norm with generating function ``psi`` on ``p_points`` (default a
    ``grid_points``-point log grid of the certificate's p interval), the
    right one the grand norm with ``nu_gen`` on ``q_points``.  Points are
    sorted and must be distinct and lie inside their interval.  Raises,
    before any ascent runs, when a fundamental value carries the
    endpoint-divergence flag (the inequality's normalization would then be
    meaningless).
    """
    from .mri import sup_mri_norm, verify_theorem2

    def grid(interval: ExponentInterval, points) -> PGrid:
        if points is None:
            points = exponent_grid(interval.a, interval.b, grid_points)
        return grid_from_points(interval, points, refinement_depth=0)

    W = sup_mri_norm(psi, grid(cert.p_interval, p_points))
    R = sup_mri_norm(nu_gen, grid(cert.q_interval, q_points))
    for norm in (W, R):
        if norm.grid_fundamental(1.0 / cert.sigma)[1] and len(norm.grid.points) > 1:
            raise ValueError(
                "fundamental function attained its maximum at the last grid point; "
                "it may diverge toward the interval boundary and the inequality "
                "normalization cannot be trusted"
            )
    return verify_theorem2(A, cert, W, R, samples=samples, seed=seed, cbar=cbar,
                           restarts=restarts, tol=tol)
