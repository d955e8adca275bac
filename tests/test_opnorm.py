import itertools
import math

import numpy as np
import pytest

from glsx import (INFINITY, GridFunction, MatrixOperator, MeasureSpace,
                  OperatorBoundCertificate, apply, check_sigma_condition,
                  lp_norm, make_boundary, make_power, minimal_constant, op_norm_lower,
                  op_norm_oracle, operator_from_spec, restrict, verify_theorem1)
from glsx import opnorm
from glsx.gls import exponent_grid
from glsx.measure import _row_norms
from glsx.opnorm import op_norm_oracle_table

EXPONENTS = (1.0, 1.5, 2.0, 4.0, INFINITY)


class TestApply:
    def test_identity(self):
        A = MatrixOperator.identity(3)
        g = GridFunction(A.source, [1.0, -2.0, 0.5])
        assert np.array_equal(apply(A, g).values, g.values)

    def test_all_ones(self):
        A = MatrixOperator.on_counting([[1, 1], [1, 1]])
        g = GridFunction(A.source, [1.0, 1.0])
        assert np.array_equal(apply(A, g).values, [2.0, 2.0])

    def test_small_example(self):
        A = MatrixOperator.on_counting([[1, 2], [3, 4]])
        g = GridFunction(A.source, [1.0, -1.0])
        assert np.array_equal(apply(A, g).values, [-1.0, -1.0])

    def test_dimension_mismatch(self):
        A = MatrixOperator.on_counting([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            apply(A, GridFunction.on_counting([1.0, 2.0, 3.0]))


class TestAscent:
    def test_identity_l2(self):
        assert op_norm_lower(MatrixOperator.identity(2), 2, 2).value == \
            pytest.approx(1.0, rel=1e-12)

    def test_diagonal_witness(self):
        res = op_norm_lower(MatrixOperator.on_counting([[3, 0], [0, 1]]), 2, 2)
        assert res.value == pytest.approx(3.0, rel=1e-12)
        w = np.abs(res.witness.values)
        assert w[0] > 100 * w[1]

    def test_all_ones_l2(self):
        res = op_norm_lower(MatrixOperator.on_counting([[1, 1], [1, 1]]), 2, 2)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_zero_matrix(self):
        res = op_norm_lower(MatrixOperator.on_counting([[0, 0], [0, 0]]), 2, 2)
        assert res.value == 0.0
        assert res.zero_matrix

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(0)
        E = rng.uniform(0, 1, (3, 3))
        for c in (0.25, 8.0):
            for q, p in ((1.0, 2.0), (2.0, INFINITY), (4.0, 1.5)):
                base = op_norm_lower(MatrixOperator.on_counting(E), q, p, seed=1).value
                scaled = op_norm_lower(MatrixOperator.on_counting(c * E), q, p, seed=1).value
                assert scaled == pytest.approx(c * base, rel=1e-10)

    def test_deterministic_given_seed(self):
        A = MatrixOperator.on_counting(np.random.default_rng(9).uniform(0, 1, (3, 3)))
        a = op_norm_lower(A, 1.5, 4.0, restarts=16, seed=42)
        b = op_norm_lower(A, 1.5, 4.0, restarts=16, seed=42)
        assert a.value == b.value
        assert np.array_equal(a.witness.values, b.witness.values)


def _full_start_block(n, restarts, seed, A=None):
    """Every start the ascent is seeded with, repeats included; a signed
    operator ``A`` adds the nonzero pullbacks ``A^T mu y`` of its target
    sign vectors (first entry 1) and target basis vectors y."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(n, restarts))
    G = np.hstack([np.ones((n, 1)), np.eye(n), signs])
    if A is None or A.is_nonnegative():
        return G
    m = A.target.size
    Y = np.array([s for s in itertools.product((1.0, -1.0), repeat=m) if s[0] == 1.0]
                 + np.eye(m).tolist()).T
    P = A.entries.T @ (A.target.weights[:, None] * Y)
    return np.hstack([G, P[:, np.abs(P).max(axis=0) > 0.0]])


def _is_corner(q, p):
    return q in (1.0, INFINITY) or p in (1.0, INFINITY) or q == p == 2.0


def _start_operators():
    from glsx import make_siamese, to_operator
    rng = np.random.default_rng(29)
    return [
        to_operator(make_siamese(3), "counting"),  # Lo Shu
        MatrixOperator.on_counting(rng.uniform(0.0, 1.0, (3, 3))),
        MatrixOperator.on_counting([[1.0, -0.5], [0.25, 2.0]]),
        MatrixOperator(rng.uniform(-1.0, 1.0, (4, 3)), MeasureSpace([0.5, 2.0, 1.0]),
                       MeasureSpace([1.0, 0.3, 2.0, 0.7])),
        MatrixOperator.identity(1),
    ]


def _full_block_ascent(A, qc, pc, G):
    return opnorm._ascent_batch(A.entries, A.target.weights, A.source.weights, G,
                                np.asarray(qc, float), np.asarray(pc, float), 1e-12, 200)


def _full_grid_constant(A, sigma, p_grid, q_grid, samples, seed):
    """Every (p, q) pair of the grids and every start, in one full-block
    ascent; returns the grid maximum and its lexicographically first pair."""
    pairs = [(p, q) for p in sorted(p_grid) for q in sorted(q_grid)]
    G = _full_start_block(A.source.size, samples, seed, A)
    cols = G.shape[1]
    best, _ = _full_block_ascent(A, np.repeat([q for _, q in pairs], cols),
                                 np.repeat([p for p, _ in pairs], cols),
                                 np.tile(G, len(pairs)))
    per_pair = best.reshape(len(pairs), cols).max(axis=1)
    want, arg = -INFINITY, None
    for (p, q), norm in zip(pairs, per_pair):
        val = sigma ** (opnorm.inv_exponent(p) - opnorm.inv_exponent(q)) * norm
        if val > want:
            want, arg = val, (p, q)
    return want, arg


class TestAscentStarts:
    def test_distinct_in_first_occurrence_order(self):
        for n in (1, 2, 3, 4):
            for restarts in (1, 8, 32):
                for seed in range(6):
                    full = [c.tobytes() for c in _full_start_block(n, restarts, seed).T]
                    got = [c.tobytes() for c in opnorm._ascent_starts(n, restarts, seed).T]
                    # dict keys: each column once, where it first occurs
                    assert got == list(dict.fromkeys(full))
        assert opnorm._ascent_starts(1, 32, 0).tolist() == [[1.0, -1.0]]

    def test_op_norm_lower_matches_full_block(self):
        # corner pairs take a closed form instead (TestExactCorners)
        for A in _start_operators():
            n = A.source.size
            for restarts, seed in ((1, 0), (3, 0), (8, 7), (32, 3)):
                G = _full_start_block(n, restarts, seed, A)
                for q in EXPONENTS:
                    for p in EXPONENTS:
                        if _is_corner(q, p):
                            continue
                        best, best_G = _full_block_ascent(
                            A, [q] * G.shape[1], [p] * G.shape[1], G)
                        k = int(np.argmax(best))
                        res = op_norm_lower(A, q, p, restarts=restarts, seed=seed)
                        assert res.value == best[k]
                        assert np.array_equal(res.witness.values, best_G[:, k])

    def test_minimal_constant_matches_full_block(self):
        sigma = 3.0
        grids = [(exponent_grid(4, 8, 5), exponent_grid(1, 2, 5)),
                 (EXPONENTS, EXPONENTS)]
        for A in _start_operators():
            for p_grid, q_grid in grids:
                for samples, seed in ((0, 1), (8, 2), (32, 0)):
                    want, arg = _full_grid_constant(A, sigma, p_grid, q_grid, samples, seed)
                    got = minimal_constant(A, sigma, p_grid, q_grid, samples=samples,
                                           seed=seed)
                    assert got.value == want
                    assert (got.argmax_p, got.argmax_q) == arg

    def test_minimal_constant_batches_keep_its_value(self, monkeypatch):
        # one exponent pair per batch gives the bits of one batch for all
        grids = [(exponent_grid(4, 8, 5), exponent_grid(1, 2, 5)), (EXPONENTS, EXPONENTS)]
        for A in _start_operators():
            for p_grid, q_grid in grids:
                want = minimal_constant(A, 0.8, p_grid, q_grid, samples=8, seed=2)
                with monkeypatch.context() as mp:
                    mp.setattr(opnorm, "_BATCH_COLUMNS", 1)
                    assert minimal_constant(A, 0.8, p_grid, q_grid, samples=8, seed=2) == want

    def test_minimal_constant_matches_per_pair_ascents(self):
        sigma = 2.0
        p_grid, q_grid = exponent_grid(4, 8, 5), exponent_grid(1, 2, 5)
        for A in _start_operators():
            for samples, seed in ((1, 3), (8, 0), (32, 1)):
                per_pair = {(p, q): sigma ** (1.0 / p - 1.0 / q) * op_norm_lower(
                                A, q, p, restarts=samples, seed=seed).value
                            for p in p_grid for q in q_grid}
                want = max(per_pair.values())
                got = minimal_constant(A, sigma, p_grid, q_grid, samples=samples, seed=seed)
                assert got.value == want
                assert per_pair[(got.argmax_p, got.argmax_q)] == want


def _masked_dual_target(H, w, pc):
    """The ascent direction of the masked step (per-step class masks)."""
    U = np.empty_like(H)
    absh = np.abs(H)
    one = pc == 1.0
    if one.any():
        U[:, one] = w[:, None] * np.sign(H[:, one])
    inf = np.isinf(pc)
    if inf.any():
        cols = np.flatnonzero(inf)
        block = np.zeros((H.shape[0], cols.size))
        idx = absh[:, cols].argmax(axis=0)
        block[idx, np.arange(cols.size)] = np.sign(H[idx, cols])
        U[:, cols] = block
    rest = ~(one | inf)
    if rest.any():
        Hr = absh[:, rest]
        mx = Hr.max(axis=0)
        mx = np.where(mx > 0.0, mx, 1.0)
        with np.errstate(divide="ignore"):
            logs = np.log(Hr / mx)
        U[:, rest] = w[:, None] * np.exp(logs * (pc[rest] - 1.0)[None, :]) * np.sign(H[:, rest])
    return U


def _masked_dual_source(Z, w, qc):
    """The source-sphere maximizer of the masked step."""
    G = np.empty_like(Z)
    one = qc == 1.0
    if one.any():
        cols = np.flatnonzero(one)
        scores = np.abs(Z[:, cols]) / w[:, None]
        idx = scores.argmax(axis=0)
        block = np.zeros((Z.shape[0], cols.size))
        s = np.sign(Z[idx, cols])
        s[s == 0.0] = 1.0
        block[idx, np.arange(cols.size)] = s / w[idx]
        G[:, cols] = block
    inf = np.isinf(qc)
    if inf.any():
        G[:, inf] = np.where(Z[:, inf] < 0.0, -1.0, 1.0)
    rest = ~(one | inf)
    if rest.any():
        T = np.abs(Z[:, rest]) / w[:, None]
        mx = T.max(axis=0)
        mx = np.where(mx > 0.0, mx, 1.0)
        with np.errstate(divide="ignore"):
            logs = np.log(T / mx)
        B = np.exp(logs * (1.0 / (qc[rest] - 1.0))[None, :]) * np.sign(Z[:, rest])
        norms = _row_norms(B.T, w, qc[rest, None])[:, 0]
        norms[norms == 0.0] = 1.0
        G[:, rest] = B / norms
    return G


def _masked_ascent_batch(E, mu, nu, G, qc, pc, tol, max_iter):
    """Reference ascent: class masks worked out at every step, three kernel
    calls per step (source norm, target norm, projection norm)."""
    def product(M, X):
        if M.shape[0] == 1:  # one output row: summed term by term, in order
            out = M[:, :1] * X[:1]
            for j in range(1, M.shape[1]):
                out = out + M[:, j:j + 1] * X[j:j + 1]
            return out
        if X.shape[1] == 1:  # a lone column: gemm, as one of two copies
            return (M @ np.hstack([X, X]))[:, :1]
        return M @ X

    n_cols = G.shape[1]
    g0 = _row_norms(G.T, nu, qc[:, None])[:, 0]
    G = G / np.where(g0 > 0.0, g0, 1.0)
    best = np.zeros(n_cols)
    best_G = G.copy()
    prev = np.full(n_cols, -1.0)
    no_improve = np.zeros(n_cols, dtype=int)
    idx = np.arange(n_cols)
    for _ in range(int(max_iter)):
        Ga = G[:, idx]
        qa, pa = qc[idx], pc[idx]
        H = product(E, Ga)
        gn = _row_norms(Ga.T, nu, qa[:, None])[:, 0]
        hn = _row_norms(H.T, mu, pa[:, None])[:, 0]
        ok = gn > 0.0
        ratio = np.zeros(idx.size)
        ratio[ok] = hn[ok] / gn[ok]
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
        U = _masked_dual_target(H[:, keep], mu, pa[keep])
        Z = product(E.T, U)
        alive = np.abs(Z).max(axis=0) > 0.0
        idx = idx[keep][alive]
        if idx.size == 0:
            break
        G[:, idx] = _masked_dual_source(Z[:, alive], nu, qc[idx])
    return best, best_G


def _step_cases():
    """(E, mu, nu, G, qc, pc) batches: every uniform (q, p) pair and
    mixed batches, on counting and weighted measures, signed operators with
    a zero column, a zero start column, and targets of 8 or more rows (the
    wide-row layout of ``measure``)."""
    rng = np.random.default_rng(53)
    for m, n in ((1, 3), (2, 2), (3, 3), (4, 3), (8, 3), (9, 2), (12, 4), (3, 9)):
        E = rng.uniform(-1.0, 1.0, (m, n))
        E[:, -1] = 0.0
        starts = opnorm._ascent_starts(n, 6, int(rng.integers(100)))
        G = np.hstack([starts, np.zeros((n, 1))])
        for mu, nu in ((np.ones(m), np.ones(n)),
                       (rng.uniform(0.2, 3.0, m), rng.uniform(0.2, 3.0, n))):
            cols = G.shape[1]
            for q, p in itertools.product(EXPONENTS, EXPONENTS):
                yield E, mu, nu, G, np.full(cols, q), np.full(cols, p)
            for pairs in (((1.0, INFINITY), (2.0, 1.5), (INFINITY, 1.0), (4.0, 4.0)),
                          ((1.0, 2.0), (1.5, 1.0)), ((INFINITY, 4.0), (2.0, INFINITY)),
                          ((1.5, 2.0), (4.0, 1.5))):
                yield (E, mu, nu, np.tile(G, len(pairs)),
                       np.repeat([q for q, _ in pairs], cols),
                       np.repeat([p for _, p in pairs], cols))


class TestAscentStep:
    def test_matches_masked_step_bit_for_bit(self):
        count = 0
        for E, mu, nu, G, qc, pc in _step_cases():
            got = opnorm._ascent_batch(E, mu, nu, G, qc, pc, 1e-12, 200)
            want = _masked_ascent_batch(E, mu, nu, G, qc, pc, 1e-12, 200)
            assert np.array_equal(got[0], want[0]), (E.shape, qc, pc)
            assert np.array_equal(got[1], want[1]), (E.shape, qc, pc)
            count += 1
        assert count == 8 * 2 * (25 + 4)

    def test_infinity_columns_outlast_the_finite_ones(self):
        # the 1 -> 2 column starts at its fixed point and stalls at once; the
        # 1 -> INFINITY column climbs a column-max/row-max chain through all
        # four columns, so its later steps have no finite-p column beside it
        E = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 3.0, 4.0, 0.0],
                      [0.0, 0.0, 5.0, 6.0], [0.0, 0.0, 0.0, 7.0]])
        w = np.ones(4)
        G, qc, pc = np.eye(4)[:, [3, 0]], np.ones(2), np.array([2.0, INFINITY])
        best, best_G = opnorm._ascent_batch(E, w, w, G.copy(), qc, pc, 1e-12, 200)
        assert best[1] == 7.0 and best_G[:, 1].tolist() == [0.0, 0.0, 0.0, 1.0]
        for c in range(2):
            alone = opnorm._ascent_batch(E, w, w, G[:, [c]], qc[[c]], pc[[c]], 1e-12, 200)
            assert best[c] == alone[0][0]
            assert np.array_equal(best_G[:, c], alone[1][:, 0])

    def test_gemm_columns_do_not_depend_on_their_batch(self):
        # the BLAS property the ascent's products rely on: with a lone column
        # sent as two copies, a product column has the bits of a two-column
        # product, for contraction lengths up to 12 and 2-32 output rows, and
        # for the transposed operator the pullback multiplies by
        rng = np.random.default_rng(71)
        for k in range(2, 13):
            for rows in (2, 3, 5, 8, 12, 17, 32):
                M = rng.uniform(-1.0, 1.0, (rows, k))
                for A in (M, np.ascontiguousarray(M.T).T):
                    for cols in (2, 3, 7, 29):
                        X = rng.uniform(-1.0, 1.0, (k, cols))
                        P = A @ X
                        for j in range(cols):
                            assert P[:, j].tobytes() == (A @ X[:, [j, j]])[:, 0].tobytes()

    def test_start_blocks_cached_for_integer_seeds(self):
        block = opnorm._ascent_starts(3, 8, 11)
        assert opnorm._ascent_starts(3, 8, np.int64(11)) is block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0

    def test_other_seeds_run_uncached(self):
        info = opnorm._cached_starts.cache_info()
        fresh = [opnorm._ascent_starts(4, 32, None) for _ in range(2)]
        assert not np.array_equal(*fresh)  # 2**-128 chance of a tie
        for seed in ([5, 6], np.random.SeedSequence(5), np.random.default_rng(5)):
            assert not opnorm._ascent_starts(3, 8, seed).flags.writeable
        assert opnorm._cached_starts.cache_info() == info
        assert np.array_equal(opnorm._ascent_starts(3, 8, np.random.SeedSequence(5)),
                              opnorm._ascent_starts(3, 8, 5))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            opnorm._ascent_starts(2, 4, -1)
        with pytest.raises(ValueError):
            op_norm_lower(MatrixOperator.identity(2), 2.0, 2.0, seed=-1)


def _corner_operators():
    """Nonnegative and signed, square and rectangular operators on counting
    and weighted measures, and a signed one with a zero row and column."""
    rng = np.random.default_rng(61)
    for m, n in ((1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (2, 4), (3, 4)):
        for signed in (False, True):
            E = rng.uniform(0.0, 1.0, (m, n))
            if signed:
                E *= rng.choice([-1.0, 1.0], (m, n))
                k = rng.integers(m * n)
                E.flat[k] = -abs(E.flat[k])  # at least one negative entry
            yield MatrixOperator.on_counting(E)
            yield MatrixOperator(E, MeasureSpace(rng.uniform(0.2, 3.0, n)),
                                 MeasureSpace(rng.uniform(0.2, 3.0, m)))
    E = rng.uniform(-1.0, 1.0, (3, 3))
    E[1], E[:, 2] = 0.0, 0.0
    yield MatrixOperator.on_counting(E)


#: the signed 3x3 whose q = 4 -> p = 1.5 norm (oracle 1.7427998933) the
#: standard ascent starts miss by 5.2e-3
_BASIN_MISS = [[0.7019894936866762, 0.13138766530409896, -0.48920317801548274],
               [-0.28223867278697956, -0.6996785013712983, -0.890840495506468],
               [0.2688611172670231, -0.9768670829831729, 0.7526362701896145]]


class TestExactCorners:
    """At q = 1, p = INFINITY, q = INFINITY, p = 1 and 2 -> 2 the norm is
    the best ratio over a closed-form witness block."""

    def test_ascent_never_beats_the_closed_form(self):
        # the standard starts' ascent keeps the 1 and INFINITY classes covered
        count = 0
        for A in _corner_operators():
            G = _full_start_block(A.source.size, 32, 0)
            for q, p in itertools.product(EXPONENTS, EXPONENTS):
                if not _is_corner(q, p):
                    continue
                res = op_norm_lower(A, q, p)
                assert res.exact
                ascent = _full_block_ascent(A, [q] * G.shape[1], [p] * G.shape[1], G)[0].max()
                assert ascent <= res.value * (1.0 + 1e-15), (A.entries, q, p)
                assert ascent >= res.value * (1.0 - 1e-11), (A.entries, q, p)
                count += 1
        assert count == 29 * 17

    def test_value_is_the_ratio_at_the_witness(self):
        for A in _corner_operators():
            for q, p in itertools.product(EXPONENTS, EXPONENTS):
                res = op_norm_lower(A, q, p)
                w = res.witness
                assert res.value == pytest.approx(
                    lp_norm(apply(A, w), p) / lp_norm(w, q), rel=1e-15, abs=0.0)

    def test_large_signed_sign_forms_fall_back_to_the_ascent(self):
        # 2**13 sign vectors exceed the cap of 4,096; a nonnegative operator
        # needs only the constant sign vector
        rng = np.random.default_rng(67)
        E = rng.uniform(0.0, 1.0, (2, 14))
        for entries, q, p in ((E, INFINITY, 2.0), (E.T, 1.5, 1.0)):
            assert op_norm_lower(MatrixOperator.on_counting(entries), q, p).exact
            signed = entries * rng.choice([-1.0, 1.0], entries.shape)
            signed[0, 0] = -abs(signed[0, 0])
            res = op_norm_lower(MatrixOperator.on_counting(signed), q, p)
            assert not res.exact and res.value > 0.0
        small = MatrixOperator.on_counting(np.array(_BASIN_MISS))
        assert op_norm_lower(small, INFINITY, 1.5).exact

    def test_pullback_starts_reach_the_missed_basin(self):
        # minimal_constant shares the pullback starts, so its one-pair grid
        # gets op_norm_lower's value bit for bit
        A = MatrixOperator.on_counting(_BASIN_MISS)
        for seed in (0, 1, 2, 7):
            value = op_norm_lower(A, 4.0, 1.5, seed=seed).value
            assert value >= 1.7427998933 * (1.0 - 1e-9)
            assert minimal_constant(A, 1.0, [1.5], [4.0], seed=seed).value == value


class TestOracle:
    def test_identity_l1(self):
        assert op_norm_oracle(MatrixOperator.identity(2), 1, 1, resolution=180) == \
            pytest.approx(1.0, rel=1e-9)

    def test_swap_isometry(self):
        A = MatrixOperator.on_counting([[0, 1], [1, 0]])
        for p in (1.0, 2.0, INFINITY):
            assert op_norm_oracle(A, p, p, resolution=180) == \
                pytest.approx(1.0, rel=1e-9)

    def test_ones_one_to_sup_is_max_entry(self):
        A = MatrixOperator.on_counting([[1, 1], [1, 1]])
        assert op_norm_oracle(A, 1, INFINITY, resolution=360) == \
            pytest.approx(1.0, rel=1e-9)

    def test_source_size_guard(self):
        A = MatrixOperator.on_counting(np.ones((5, 5)))
        with pytest.raises(ValueError):
            op_norm_oracle(A, 2, 2)
        assert op_norm_oracle(A, 2, 2, resolution=8, allow_large=True) > 0.0

    def test_sign_patterns_for_general_matrices(self):
        A = MatrixOperator.on_counting([[1.0, -1.0], [0.5, 2.0]])
        # q = inf extremizer needs mixed signs: check against the ascent
        lo = op_norm_lower(A, INFINITY, 1, restarts=64, seed=0).value
        orc = op_norm_oracle(A, INFINITY, 1, resolution=360)
        assert orc == pytest.approx(lo, rel=1e-6)

    def test_agreement_small_sample(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            n = int(rng.integers(1, 4))
            A = MatrixOperator.on_counting(rng.uniform(0, 1, (n, n)))
            table = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=360)
            for q in EXPONENTS:
                for p in EXPONENTS:
                    lo = op_norm_lower(A, q, p, restarts=32, seed=k).value
                    assert abs(lo - table[(q, p)]) <= 1e-3 * table[(q, p)]

    def test_weighted_measures(self):
        # diagonal operator between weighted L2 spaces: the ratio is a
        # generalized Rayleigh quotient, maximized at the best coordinate
        # j of sqrt(mu_j a_jj^2 / nu_j)
        mu = MeasureSpace([0.5, 2.0])
        nu = MeasureSpace([4.0, 1.0])
        A = MatrixOperator(np.diag([2.0, 1.0]), nu, mu)
        expected = max(math.sqrt(0.5 * 4.0 / 4.0), math.sqrt(2.0 * 1.0 / 1.0))
        assert op_norm_oracle(A, 2, 2, resolution=720) == \
            pytest.approx(expected, rel=1e-6)
        assert op_norm_lower(A, 2, 2).value == pytest.approx(expected, rel=1e-9)

    def test_caches_are_read_only_and_clearing_them_keeps_the_table(self):
        # the cached grid and q-norms are shared by every call, so no caller
        # may write them, and rebuilding them gives the same bits
        A = MatrixOperator(np.array([[1.0, -2.0], [0.5, 1.0]]), MeasureSpace([1.0, 0.3]),
                           MeasureSpace([0.5, 2.0]))
        want = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90)
        nu = A.source.weights.tobytes()
        cached = [opnorm._oracle_directions(2, 90),
                  *opnorm._oracle_qnorms(2, 90, nu, 2.0)]
        for array in cached:
            with pytest.raises(ValueError):
                array[0] = 0.0
        opnorm._oracle_directions.cache_clear()
        opnorm._oracle_qnorms.cache_clear()
        got = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90)
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    def test_table_matches_single_pair_calls(self):
        # every pair searches and polishes independently of the pairs that
        # share its call, so a table equals per-pair calls bit for bit
        rng = np.random.default_rng(13)
        operators = [
            MatrixOperator.on_counting([[1.0, -0.5], [0.25, 2.0]]),
            MatrixOperator.on_counting(rng.uniform(-1.0, 1.0, (3, 3))),
            MatrixOperator(rng.uniform(-1.0, 1.0, (4, 3)), MeasureSpace([0.5, 2.0, 1.0]),
                           MeasureSpace([1.0, 0.3, 2.0, 0.7])),
        ]
        # one-row targets: numpy's vector path for them rounds by batch width
        for n in (2, 3):
            E = rng.uniform(0.1, 1.0, (1, n))
            operators += [MatrixOperator.on_counting(E),
                          MatrixOperator.on_counting(E * np.resize([1.0, -1.0], n))]
        # targets of 8-12 points: the kernel sums their rows pairwise
        for m, n in ((8, 2), (9, 3), (10, 2), (11, 3), (12, 2), (12, 3)):
            operators.append(MatrixOperator.on_counting(rng.uniform(-1.0, 1.0, (m, n))))
        for A in operators:
            table = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=60)
            assert list(table) == [(q, p) for q in EXPONENTS for p in EXPONENTS]
            for (q, p), value in table.items():
                assert value == op_norm_oracle(A, q, p, resolution=60)

    def test_polish_never_lowers_the_grid_value(self):
        rng = np.random.default_rng(17)
        for n in (2, 3):
            A = MatrixOperator.on_counting(rng.uniform(-1.0, 1.0, (n, n)))
            grid = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90,
                                        polish=False)
            polished = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90)
            assert all(polished[pair] >= grid[pair] for pair in grid)
            assert any(polished[pair] > grid[pair] for pair in grid)

    def test_grid_chunks_do_not_change_values(self, monkeypatch):
        # the symmetric operator has tied grid maxima; chunk borders must
        # keep the first one, as a single pass over the grid does
        operators = [MatrixOperator.on_counting([[1.0, 1.0], [1.0, 1.0]]),
                     MatrixOperator.on_counting([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0],
                                                 [2.0, 0.1, 1.0]])]
        want = [op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=30, polish=polish)
                for A in operators for polish in (False, True)]
        monkeypatch.setattr(opnorm, "_GRID_CHUNK", 1)
        got = [op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=30, polish=polish)
               for A in operators for polish in (False, True)]
        assert got == want

    def test_empty_exponent_lists(self):
        A = MatrixOperator.on_counting([[1.0, 2.0], [0.5, 1.0]])
        assert op_norm_oracle_table(A, [], EXPONENTS) == {}
        assert op_norm_oracle_table(A, EXPONENTS, []) == {}

    def test_interpolation_consistency(self):
        rng = np.random.default_rng(11)
        A = MatrixOperator.on_counting(rng.uniform(0, 1, (3, 3)))
        for q in (1.0, 2.0):
            base = op_norm_oracle(A, q, q, resolution=360)
            for p in (2.0, 4.0, INFINITY):
                if p >= q:
                    assert op_norm_oracle(A, q, p, resolution=360) <= base * (1 + 1e-9)


class TestPolish:
    """The polish is one duality ascent over every pair, started from the
    pair's best grid or classical direction; a pair keeps the larger of its
    grid and ascent values."""

    def test_two_to_two_is_the_largest_singular_value(self):
        # on counting measures the 2 -> 2 norm is the spectral norm; the
        # oracle is a lower bound of it, and a rounding-level one
        rng = np.random.default_rng(31)
        for n, count, res in ((2, 12, 720), (3, 4, 720), (4, 2, 40)):
            for signed in (False, True):
                for _ in range(count):
                    E = rng.uniform(0.0, 1.0, (n, n))
                    if signed:
                        E *= rng.choice([-1.0, 1.0], (n, n))
                    value = op_norm_oracle(MatrixOperator.on_counting(E), 2, 2,
                                           resolution=res)
                    svd = np.linalg.norm(E, 2)
                    assert value <= svd * (1.0 + 1e-14)
                    assert value >= svd * (1.0 - 1e-14)

    def test_one_round_from_the_constant_candidate(self):
        # pi/4 is no grid angle at resolution 720: here the constant
        # direction beats the grid, and the ascent starts from it
        for E in ([[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 2.0003]]):
            A = MatrixOperator.on_counting(np.array(E))
            c = np.ones(2) / math.sqrt(2.0)
            constant = np.linalg.norm(A.entries @ c) / np.linalg.norm(c)
            assert op_norm_oracle(A, 2, 2, polish=False) == constant
            svd = np.linalg.norm(A.entries, 2)
            assert abs(op_norm_oracle(A, 2, 2) - svd) <= 1e-14 * svd

    def test_one_ascent_from_every_best_direction(self, monkeypatch):
        calls = []
        batch = opnorm._ascent_batch

        def spy(E, mu, nu, G, qc, pc, tol, max_iter):
            out = batch(E, mu, nu, G, qc, pc, tol, max_iter)
            calls.append(((G.copy(), qc, pc, tol, max_iter), out))
            return out

        monkeypatch.setattr(opnorm, "_ascent_batch", spy)
        rng = np.random.default_rng(37)
        for E in (rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(0.0, 1.0, (2, 2)),
                  rng.uniform(-1.0, 1.0, (4, 2))):
            A = MatrixOperator.on_counting(E)
            grid = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90,
                                        polish=False)
            calls.clear()
            table = op_norm_oracle_table(A, EXPONENTS, EXPONENTS, resolution=90)
            assert len(calls) == 1
            (G, qc, pc, tol, max_iter), (ascent, _) = calls[0]
            assert (tol, max_iter) == (1e-15, 500)
            pairs = list(itertools.product(EXPONENTS, EXPONENTS))
            assert list(zip(qc, pc)) == pairs
            # column c is the direction of pair c's grid value, signs applied
            starts = (_row_norms((E @ G).T, A.target.weights, pc[:, None])[:, 0]
                      / _row_norms(G.T, A.source.weights, qc[:, None])[:, 0])
            assert starts == pytest.approx([grid[pair] for pair in pairs], rel=1e-13)
            assert [table[pair] for pair in pairs] == \
                [max(grid[pair], a) for pair, a in zip(pairs, ascent)]


def _full_grid_table(A, qs, ps, resolution, polish):
    """``op_norm_oracle_table`` with the full grid pass, kept as the
    reference of the pruned one: every grid column goes through the kernel."""
    qs = [opnorm.as_exponent(qv) for qv in qs]
    ps = [opnorm.as_exponent(p) for p in ps]
    n_y = A.source.size
    E = A.entries
    mu = A.target.weights
    nu = A.source.weights
    res = int(resolution)
    base = opnorm._oracle_directions(n_y, res)
    q_vals = sorted(set(qs))
    p_vals = np.array(sorted(set(ps)))
    qn = [opnorm._row_norms(base.T, nu, np.array([qv]))[:, 0] for qv in q_vals]

    if A.is_nonnegative():
        patterns = np.ones((1, n_y))
    else:
        patterns = np.array([s for s in itertools.product((1.0, -1.0), repeat=n_y)
                             if s[0] == 1.0])

    extra = np.hstack([np.ones((n_y, 1)) / math.sqrt(n_y), np.eye(n_y)])
    extra_qn = opnorm._row_norms(extra.T, nu, np.array(q_vals))

    shape = (len(q_vals), p_vals.size)
    cols = np.arange(p_vals.size)
    best = np.full(shape, -1.0)
    start = np.zeros(shape + (n_y,))
    sign_of = np.zeros(shape, dtype=int)
    chunk = max(1, opnorm._GRID_CHUNK // (p_vals.size * E.shape[0]))
    for s, sign in enumerate(patterns):
        Es = E * sign[None, :]
        grid_best = np.full(shape, -1.0)
        grid_arg = np.zeros(shape, dtype=int)
        for lo in range(0, base.shape[1], chunk):
            H = opnorm._term_products(Es, base[:, lo:lo + chunk])
            pn = opnorm._row_norms(H.T, mu, p_vals).T
            vals = np.empty(pn.shape)
            for i, qn_i in enumerate(qn):
                np.divide(pn, qn_i[lo:lo + chunk], out=vals)
                k = vals.argmax(axis=1)
                v = vals[cols, k]
                up = v > grid_best[i]
                grid_best[i, up] = v[up]
                grid_arg[i, up] = lo + k[up]
        up = grid_best > best
        best[up] = grid_best[up]
        start[up] = base[:, grid_arg[up]].T
        sign_of[up] = s
        evals = (opnorm._row_norms((Es @ extra).T, mu, p_vals)[:, None, :]
                 / extra_qn[:, :, None])
        k = evals.argmax(axis=0)
        v = np.take_along_axis(evals, k[None], axis=0)[0]
        up = v > best
        best[up] = v[up]
        start[up] = extra[:, k[up]].T
        sign_of[up] = s

    values = best.ravel()
    if polish and n_y > 1:
        G = (start * patterns[sign_of]).reshape(-1, n_y).T
        ascent, _ = opnorm._ascent_batch(E, mu, nu, G, np.repeat(q_vals, p_vals.size),
                                         np.tile(p_vals, len(q_vals)), 1e-15, 500)
        values = np.maximum(values, ascent)
    table = dict(zip(itertools.product(q_vals, p_vals.tolist()), values.tolist()))
    return {(qv, p): table[(qv, p)] for qv in qs for p in ps}


def _pruning_cases():
    """(operator, resolution, qs, ps); resolutions are not multiples of 8."""
    rng = np.random.default_rng(23)
    full = (EXPONENTS, EXPONENTS)
    corners = ((1.0,), (INFINITY,))
    mixed = ((INFINITY, 2.0), (1.0, 3.0))
    inner = ((1.5,), (2.0, 4.0))
    lo_shu = [[8.0, 1.0, 6.0], [3.0, 5.0, 7.0], [4.0, 9.0, 2.0]]
    order4 = [[16.0, 2.0, 3.0, 13.0], [5.0, 11.0, 10.0, 8.0],
              [9.0, 7.0, 6.0, 12.0], [4.0, 14.0, 15.0, 1.0]]
    counting = MatrixOperator.on_counting
    return [
        # one, three and nine target points; n = 2, 3 and 4
        (counting(rng.uniform(0.0, 1.0, (1, 3))), 121, *full),
        (counting(rng.uniform(-1.0, 1.0, (3, 3))), 121, *corners),
        (counting(rng.uniform(-1.0, 1.0, (9, 3))), 97, *mixed),
        (counting(rng.uniform(-1.0, 1.0, (3, 2))), 301, *inner),
        (counting(rng.uniform(0.0, 1.0, (9, 2))), 1001, *full),
        (counting(rng.uniform(-1.0, 1.0, (3, 4))), 19, *corners),
        # weighted measures
        (MatrixOperator(rng.uniform(-1.0, 1.0, (3, 3)), MeasureSpace([0.2, 3.0, 1.1]),
                        MeasureSpace([2.5, 0.4, 1.0])), 90, *mixed),
        (MatrixOperator(rng.uniform(0.0, 1.0, (9, 2)), MeasureSpace([0.3, 1.7]),
                        MeasureSpace(rng.uniform(0.1, 2.0, 9))), 250, *full),
        # magic squares (flat pairs) and integer entries (tied grid maxima)
        (counting(lo_shu), 121, *full),
        (counting(order4), 17, *mixed),
        (counting(rng.integers(-2, 3, (3, 3))), 121, *full),
        (counting(rng.integers(0, 3, (9, 3))), 61, *inner),
        # subnormal products and norms, overflow, tiny weights
        (counting(rng.uniform(-1.0, 1.0, (3, 3)) * 1e-310), 61, *full),
        (counting(np.array([[-0.08, 0.87], [0.89, -0.81]]) * 1e-305), 301, *full),
        (counting(rng.uniform(0.0, 1.0, (3, 3)) * 1e308), 61, *full),
        (MatrixOperator(rng.uniform(-1.0, 1.0, (3, 3)), MeasureSpace([1.0, 1.0, 1.0]),
                        MeasureSpace([1e-310, 1.0, 2.0])), 61, *full),
        (MatrixOperator(rng.uniform(0.0, 1.0, (3, 3)), MeasureSpace([1e-300, 1.0, 1.0]),
                        MeasureSpace([1.0, 1e-305, 1.0])), 61, *corners),
    ]


class TestGridPruning:
    """The grid pass skips blocks that a Lipschitz bound rules out; tables
    stay bit-identical to the full grid pass."""

    @pytest.mark.parametrize("case", range(len(_pruning_cases())))
    def test_matches_full_grid_pass(self, case):
        A, res, qs, ps = _pruning_cases()[case]
        with np.errstate(all="ignore"):
            for polish in (False, True):
                want = _full_grid_table(A, qs, ps, res, polish)
                got = op_norm_oracle_table(A, qs, ps, resolution=res, polish=polish)
                assert list(got) == list(want)
                assert [float(v).hex() for v in got.values()] == \
                    [float(v).hex() for v in want.values()]

    def test_evaluates_at_most_half_of_the_grid(self, monkeypatch):
        rng = np.random.default_rng(29)
        A = MatrixOperator.on_counting(rng.uniform(-1.0, 1.0, (3, 3)))
        op_norm_oracle_table(A, EXPONENTS, EXPONENTS, polish=False)  # fills the caches
        rows = []
        kernel = opnorm._row_norms

        def counting(V, w, ps):
            rows.append(V.shape[0])
            return kernel(V, w, ps)

        monkeypatch.setattr(opnorm, "_row_norms", counting)
        op_norm_oracle_table(A, EXPONENTS, EXPONENTS, polish=False)
        assert sum(rows) <= 0.5 * 4 * 720 ** 2  # 4 sign patterns


class TestSigmaCondition:
    def test_doubly_substochastic_diagonal_pairs(self):
        # rows and columns summing below 1 keep every q -> q norm below 1
        A = MatrixOperator.on_counting([[0.5, 0.3], [0.2, 0.4]])
        cert = OperatorBoundCertificate(
            1.0, 1.0, p_interval=_interval(1.0, INFINITY),
            q_interval=_interval(1.0, INFINITY))
        for qp in (1.0, 1.5, 2.0, 7.0):
            rep = check_sigma_condition(A, cert, [qp], [qp], samples=200, seed=0)
            assert rep.holds
        assert cert.witnessed

    def test_zero_matrix_holds(self):
        A = MatrixOperator.on_counting([[0.0, 0.0], [0.0, 0.0]])
        cert = OperatorBoundCertificate(2.0, 0.5, _interval(2, 8), _interval(1, 2))
        rep = check_sigma_condition(A, cert, [2.0, 4.0], [1.0, 1.5], samples=50, seed=1)
        assert rep.holds

    def test_overflow_raises_instead_of_witnessing(self):
        A = MatrixOperator.on_counting([[1e308, 1e308], [1e308, 1e308]])
        cert = OperatorBoundCertificate(3.0, 1.0, _interval(4, 8), _interval(1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                check_sigma_condition(A, cert, exponent_grid(4, 8, 17),
                                      exponent_grid(1, 2, 17), samples=50, seed=0)
        assert not cert.witnessed

    def test_scaled_random_holds_and_witnesses(self):
        rng = np.random.default_rng(3)
        E = rng.uniform(0, 1, (3, 3))
        p_pts = exponent_grid(4, 8, 9)
        q_pts = exponent_grid(1, 2, 9)
        sigma = 3.0
        worst = minimal_constant(MatrixOperator.on_counting(E), sigma,
                                 p_pts, q_pts, samples=16, seed=5).value
        A = MatrixOperator.on_counting(E / (worst * (1 + 1e-9)))
        cert = OperatorBoundCertificate(sigma, 1.0, _interval(4, 8), _interval(1, 2))
        rep = check_sigma_condition(A, cert, p_pts, q_pts, samples=300, seed=6)
        assert rep.holds
        assert rep.worst_ratio <= 1.0 + 1e-9


def _reference_table(A, p_pts, q_pts, samples, seed):
    """The sampled table as the verify engine and the sigma check built it
    inline, uncached."""
    n = A.source.size
    G = np.random.default_rng(seed).standard_normal((samples, n))
    G = np.vstack([G, np.ones((1, n)), np.eye(n)])
    return (G, _row_norms(G @ A.entries.T, A.target.weights, np.asarray(p_pts, dtype=float)),
            _row_norms(G, A.source.weights, np.asarray(q_pts, dtype=float)))


def _weighted_operators():
    rng = np.random.default_rng(41)
    for m, n in ((1, 3), (2, 2), (3, 1), (4, 3), (3, 4)):
        E = rng.uniform(-1.0, 2.0, (m, n))
        yield MatrixOperator(E, MeasureSpace(rng.uniform(0.2, 3.0, n)),
                             MeasureSpace(rng.uniform(0.2, 3.0, m)))


class TestSampledNorms:
    GRIDS = [(exponent_grid(4, 8, 17), exponent_grid(1, 2, 17)),
             (np.array([1.0, 1.5, 2.0, 4.0, INFINITY]), np.array([INFINITY, 1.0, 3.0])),
             (np.array([4, 6, 8]), [1, 2])]  # integer grids are read as exponents

    def test_matches_uncached_reference_bit_for_bit(self):
        for A in _weighted_operators():
            for p_pts, q_pts in self.GRIDS:
                for samples, seed in ((0, 3), (7, 0), (300, 11)):
                    want = _reference_table(A, p_pts, q_pts, samples, seed)
                    for key in (seed, np.int64(seed), np.random.SeedSequence(seed)):
                        got = opnorm._sampled_norms(A, p_pts, q_pts, samples, key)
                        for g, w in zip(got, want):
                            assert g.tobytes() == w.tobytes() and g.shape == w.shape

    def test_arrays_are_read_only(self):
        A = next(_weighted_operators())
        p_pts, q_pts = self.GRIDS[1]
        for seed in (5, np.random.SeedSequence(5)):
            for X in opnorm._sampled_norms(A, p_pts, q_pts, 10, seed):
                with pytest.raises(ValueError, match="read-only"):
                    X[0, 0] = 1.0

    def test_verify_triple_samples_once(self):
        from glsx import grid_from_points, integral_mri_norm, sup_mri_norm, verify_theorem2
        from glsx.experiments import build_extrapolation_ensemble
        inst = build_extrapolation_ensemble(count=5, seed=17)[4]
        A, cert = inst.operator, inst.cert
        opnorm._sampled_table.cache_clear()
        verify_theorem1(A, cert, inst.psi, inst.nu, samples=1000, seed=inst.seed,
                        p_points=inst.p_points, q_points=inst.q_points, cbar=inst.cbar)
        W = integral_mri_norm(cert.p_interval, s=1.0, points=inst.p_points)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=inst.q_points)
        verify_theorem2(A, cert, W, R, samples=1000, seed=inst.seed, cbar=inst.cbar)
        Ws = sup_mri_norm(inst.psi, grid_from_points(cert.p_interval, inst.p_points,
                                                     refinement_depth=0))
        Rs = sup_mri_norm(inst.nu, grid_from_points(cert.q_interval, inst.q_points,
                                                    refinement_depth=0))
        verify_theorem2(A, cert, Ws, Rs, samples=1000, seed=inst.seed, cbar=inst.cbar)
        info = opnorm._sampled_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_every_input_is_part_of_the_key(self):
        A = MatrixOperator(np.array([[1.0, 2.0], [0.5, 3.0]]), MeasureSpace([1.0, 2.0]),
                           MeasureSpace([0.5, 1.0]))
        p_pts, q_pts = self.GRIDS[1]
        base = (A, p_pts, q_pts, 20, 4)
        opnorm._sampled_table.cache_clear()
        opnorm._sampled_norms(*base)
        opnorm._sampled_norms(*base)
        assert opnorm._sampled_table.cache_info().hits == 1
        variants = [
            (A, p_pts, q_pts, 20, 5),
            (A, p_pts, q_pts, 21, 4),
            (A, p_pts[:-1], q_pts, 20, 4),
            (A, p_pts, q_pts[1:], 20, 4),
            (MatrixOperator(A.entries, MeasureSpace([1.0, 2.5]), A.target), p_pts, q_pts, 20, 4),
            (MatrixOperator(A.entries, A.source, MeasureSpace([0.5, 1.5])), p_pts, q_pts, 20, 4),
            (MatrixOperator(A.entries * 2.0, A.source, A.target), p_pts, q_pts, 20, 4),
            (MatrixOperator(A.entries.T.copy(), A.target, A.source), p_pts, q_pts, 20, 4),
        ]
        for k, args in enumerate(variants):
            want = _reference_table(*args)
            got = opnorm._sampled_norms(*args)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            info = opnorm._sampled_table.cache_info()
            assert (info.misses, info.hits) == (2 + k, 1)


def _interval(a, b):
    from glsx.genfun import ExponentInterval
    return ExponentInterval(a, b)


class TestMinimalConstant:
    def test_identity_on_point(self):
        assert minimal_constant(MatrixOperator.identity(1), 1.0,
                                [1.0, 2.0, 4.0], [1.0, 2.0, 4.0],
                                samples=8, seed=0).value == pytest.approx(1.0)

    def test_identity_ordered_grids(self):
        # with every q below every p the counting-measure identity norm is 1
        val = minimal_constant(MatrixOperator.identity(3), 1.0,
                               [4.0, 6.0, 8.0], [1.0, 1.5, 2.0],
                               samples=8, seed=0).value
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_magic_square_alpha(self):
        from glsx import make_siamese, to_operator
        sq = make_siamese(3)
        A = to_operator(sq, "counting")
        val = minimal_constant(A, 3.0, [2.0, 3.0, 4.0], [1.0, 1.5, 2.0],
                               samples=8, seed=0).value
        assert val == pytest.approx(sq.alpha, rel=1e-12)

    @pytest.mark.parametrize("entries", [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]],
                             ids=["nonzero", "zero"])
    def test_empty_grid_is_rejected(self, entries):
        A = MatrixOperator.on_counting(entries)
        for p_grid, q_grid in (([], [2.0]), ([2.0], []), ([], [])):
            with pytest.raises(ValueError, match="at least one exponent"):
                minimal_constant(A, 2.0, p_grid, q_grid)

    def test_cross_check_against_oracle(self):
        rng = np.random.default_rng(13)
        A = MatrixOperator.on_counting(rng.uniform(0, 1, (2, 2)))
        sigma = 2.0
        p_pts = [1.0, 2.0, 4.0]
        q_pts = [1.0, 1.5, 2.0]
        got = minimal_constant(A, sigma, p_pts, q_pts, samples=32, seed=1).value
        from glsx.opnorm import inv_exponent
        table = op_norm_oracle_table(A, q_pts, p_pts, resolution=720)
        want = max(sigma ** (inv_exponent(p) - inv_exponent(qv)) * table[(qv, p)]
                   for p in p_pts for qv in q_pts)
        assert got == pytest.approx(want, rel=1e-4)


def _pairs_run(monkeypatch):
    """Record the distinct (p, q) pairs each ascent batch runs."""
    runs = []
    batch = opnorm._ascent_batch

    def spy(E, mu, nu, G, qc, pc, *rest):
        runs.append(set(zip(pc.tolist(), qc.tolist())))
        return batch(E, mu, nu, G, qc, pc, *rest)

    monkeypatch.setattr(opnorm, "_ascent_batch", spy)
    return runs


class TestGridCollapse:
    P_GRID = exponent_grid(4, 8, 5)
    Q_GRID = exponent_grid(1, 2, 5)

    def test_no_collapse_matches_full_grid(self, monkeypatch):
        rng = np.random.default_rng(41)
        runs = _pairs_run(monkeypatch)
        # atoms below 1 with total mass above 1, then sigma > 1 on probability
        # measures: neither end of either axis is known to win
        cases = [(MatrixOperator(rng.uniform(-1, 1, (3, 3)), MeasureSpace([0.5, 2.0, 1.0]),
                                 MeasureSpace([0.4, 1.5, 0.9])), 3.0),
                 (MatrixOperator(rng.uniform(0, 1, (3, 2)), MeasureSpace([0.7, 0.8]),
                                 MeasureSpace([0.5, 0.5, 0.5])), 0.5),
                 (MatrixOperator(rng.uniform(0, 1, (2, 3)), MeasureSpace.normalized(3),
                                 MeasureSpace.normalized(2)), 3.0)]
        for A, sigma in cases:
            for samples, seed in ((0, 1), (8, 2)):
                got = minimal_constant(A, sigma, self.P_GRID, self.Q_GRID,
                                       samples=samples, seed=seed)
                assert len(runs.pop()) == len(self.P_GRID) * len(self.Q_GRID)
                want, arg = _full_grid_constant(A, sigma, self.P_GRID, self.Q_GRID,
                                                samples, seed)
                assert got.value == want
                assert (got.argmax_p, got.argmax_q) == arg

    def test_one_axis_collapse(self, monkeypatch):
        # counting target, probability source, sigma > 1: only p collapses
        A = MatrixOperator(np.random.default_rng(43).uniform(0, 1, (3, 2)),
                           MeasureSpace.normalized(2), MeasureSpace.counting(3))
        runs = _pairs_run(monkeypatch)
        got = minimal_constant(A, 2.0, self.P_GRID, self.Q_GRID, samples=8, seed=3)
        assert runs == [{(self.P_GRID[0], q) for q in self.Q_GRID}]
        want, _ = _full_grid_constant(A, 2.0, self.P_GRID, self.Q_GRID, 8, 3)
        assert got.argmax_p == self.P_GRID[0]
        assert got.value >= want * (1.0 - 1e-12)

    def test_corner_bounds_the_full_grid(self, monkeypatch):
        rng = np.random.default_rng(47)
        runs = _pairs_run(monkeypatch)
        for trial in range(12):
            # signed on odd trials; counting with sigma >= 1 on trials 0, 1
            # mod 4, probability measures with sigma <= 1 on the rest
            counting, k = trial % 4 < 2, trial // 4
            n, m = (int(x) for x in rng.integers(1 if counting else 2, 5, size=2))
            E = rng.uniform(-1.0 if trial % 2 else 0.0, 1.0, (m, n))
            if counting:
                A = MatrixOperator.on_counting(E)
                sigma = (1.0, 2.0, 4.0)[k]
                corner = (self.P_GRID[0], self.Q_GRID[-1])
            else:
                A = MatrixOperator(E, MeasureSpace.normalized(n), MeasureSpace.normalized(m))
                sigma = (0.25, 0.5, 1.0)[k]
                corner = (self.P_GRID[-1], self.Q_GRID[0])
            got = minimal_constant(A, sigma, self.P_GRID, self.Q_GRID, samples=8, seed=trial)
            assert runs.pop() == {corner}
            want, _ = _full_grid_constant(A, sigma, self.P_GRID, self.Q_GRID, 8, trial)
            assert (got.argmax_p, got.argmax_q) == corner
            assert got.value >= want * (1.0 - 1e-12)

    def test_grid_with_infinity(self):
        rng = np.random.default_rng(53)
        E = rng.uniform(0.0, 1.0, (3, 3))
        cases = [(MatrixOperator.on_counting(E), 2.0, (1.0, INFINITY)),
                 (MatrixOperator(E, MeasureSpace.normalized(3), MeasureSpace.normalized(3)),
                  0.5, (INFINITY, 1.0))]
        for A, sigma, corner in cases:
            want, _ = _full_grid_constant(A, sigma, EXPONENTS, EXPONENTS, 8, 0)
            got = minimal_constant(A, sigma, EXPONENTS, EXPONENTS, samples=8, seed=0)
            assert (got.argmax_p, got.argmax_q) == corner
            assert got.value >= want * (1.0 - 1e-12)

    def test_zero_matrix_reports_smallest_pair_of_full_grids(self):
        zero = np.zeros((2, 2))
        for A, sigma in ((MatrixOperator.on_counting(zero), 3.0),
                         (MatrixOperator(zero, MeasureSpace.normalized(2),
                                         MeasureSpace.normalized(2)), 0.5)):
            got = minimal_constant(A, sigma, [8.0, 4.0, 6.0], [2.0, 1.0, 1.5])
            assert (got.value, got.argmax_p, got.argmax_q) == (0.0, 4.0, 1.0)


class TestVerifyTheorem1:
    def test_identity_equality_case(self):
        psi = restrict(make_power(1.0), 4.0, 8.0)
        A = MatrixOperator.identity(1)
        cert = OperatorBoundCertificate(1.0, 1.0, psi.domain, psi.domain)
        pts = exponent_grid(4, 8, 17)
        check_sigma_condition(A, cert, pts, pts, samples=50, seed=2)
        rep = verify_theorem1(A, cert, psi, psi, samples=200, seed=2,
                              p_points=pts, q_points=pts)
        assert rep.passed
        assert rep.max_lhs_rhs_ratio == pytest.approx(1.0, rel=1e-12)

    def test_magic_square_instance(self):
        from glsx import make_siamese, to_operator
        sq = make_siamese(3)
        A = to_operator(sq, "counting")
        psi = restrict(make_boundary(8.0, 0.5, 0.5), 4.0, 8.0)
        nu = restrict(make_boundary(2.0, 0.5, 0.5), 1.0, 2.0)
        cert = OperatorBoundCertificate(3.0, sq.alpha, psi.domain, nu.domain)
        p_pts = exponent_grid(4, 8, 17)
        q_pts = exponent_grid(1, 2, 17)
        rep_sig = check_sigma_condition(A, cert, p_pts, q_pts, samples=100, seed=3)
        assert rep_sig.holds
        rep = verify_theorem1(A, cert, psi, nu, samples=500, seed=3,
                              p_points=p_pts, q_points=q_pts)
        assert rep.passed
        assert rep.max_lhs_rhs_ratio <= 1.0 + 1e-8

    def test_point_order_does_not_matter(self):
        psi = restrict(make_boundary(8.0, 0.5, 0.5), 4.0, 8.0)
        nu = restrict(make_boundary(2.0, 0.5, 0.5), 1.0, 2.0)
        A = MatrixOperator.on_counting([[2.0, 1.0], [0.5, 3.0]])
        cert = OperatorBoundCertificate(3.0, 10.0, psi.domain, nu.domain)
        p_pts = exponent_grid(4, 8, 9)
        q_pts = exponent_grid(1, 2, 9)
        assert check_sigma_condition(A, cert, p_pts, q_pts, samples=50, seed=1).holds
        rep = verify_theorem1(A, cert, psi, nu, samples=100, seed=1,
                              p_points=p_pts, q_points=q_pts, restarts=4)
        shuffled = [p_pts[i] for i in (4, 0, 8, 2, 6, 1, 7, 3, 5)]
        rep_rev = verify_theorem1(A, cert, psi, nu, samples=100, seed=1,
                                  p_points=shuffled, q_points=q_pts[::-1],
                                  restarts=4)
        assert rep_rev == rep
        assert rep.p_points == tuple(p_pts)
        with pytest.raises(ValueError, match="strictly increasing"):
            verify_theorem1(A, cert, psi, nu, samples=10, seed=1,
                            p_points=[4.0, 5.0, 5.0], q_points=q_pts, cbar=1.0)

    def test_requires_witnessed_certificate(self):
        psi = restrict(make_power(1.0), 4.0, 8.0)
        A = MatrixOperator.identity(2)
        cert = OperatorBoundCertificate(1.0, 1.0, psi.domain, psi.domain)
        with pytest.raises(ValueError):
            verify_theorem1(A, cert, psi, psi, samples=10, seed=0)

    def test_requires_matching_domains(self):
        psi = restrict(make_power(1.0), 4.0, 8.0)
        other = restrict(make_power(1.0), 1.0, 2.0)
        A = MatrixOperator.identity(2)
        cert = OperatorBoundCertificate(1.0, 1.0, psi.domain, psi.domain,
                                        witnessed=True)
        with pytest.raises(ValueError):
            verify_theorem1(A, cert, other, psi, samples=10, seed=0)


class TestOperatorSpec:
    def test_round_trip_defaults(self):
        A = operator_from_spec({"entries": [[1.0, 2.0], [3.0, 4.0]]})
        assert np.array_equal(A.source.weights, [1.0, 1.0])
        assert np.array_equal(A.target.weights, [1.0, 1.0])

    def test_explicit_measures(self):
        A = operator_from_spec({"entries": [[1.0, 2.0]],
                                "mu": [2.0], "nu": [1.0, 3.0]})
        assert A.target.weights[0] == 2.0
        assert A.source.weights[1] == 3.0

    def test_rejects_missing_entries(self):
        with pytest.raises(ValueError):
            operator_from_spec({"mu": [1.0]})
