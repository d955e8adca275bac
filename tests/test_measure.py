import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glsx import (INFINITY, GridFunction, MeasureSpace, grid_function_from_spec,
                  lp_norm, lp_norm_table, tail_function)
from glsx.measure import _col_norms, _row_norms

finite_values = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=2, max_size=16,
)


def counting(values):
    return GridFunction.on_counting(values)


class TestLpNorm:
    def test_ones_p2(self):
        assert lp_norm(counting([1, 1, 1, 1]), 2) == pytest.approx(2.0)

    def test_ones_sup(self):
        for n in (1, 3, 17):
            assert lp_norm(counting([1.0] * n), INFINITY) == 1.0

    def test_weighted_p3(self):
        # hand-expanded: 0.5*1 + 1*8 + 2*27 = 62.5, then the cube root
        f = GridFunction(MeasureSpace([0.5, 1.0, 2.0]), [1.0, -2.0, 3.0])
        assert lp_norm(f, 3) == pytest.approx(62.5 ** (1.0 / 3.0), rel=1e-14)
        assert lp_norm(f, 3) == pytest.approx(3.9685026299204984, rel=1e-12)

    def test_zero_iff_zero_function(self):
        assert lp_norm(counting([0, 0, 0]), 2) == 0.0
        assert lp_norm(counting([0, 1e-12, 0]), 2) > 0.0

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            lp_norm(counting([1, 2]), 0.5)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            GridFunction(MeasureSpace.counting(3), [1.0, 2.0])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MeasureSpace([1.0, 0.0])
        with pytest.raises(ValueError):
            MeasureSpace([1.0, -2.0])

    @given(finite_values)
    def test_hoelder_counting(self, values):
        f = counting(values)
        n = len(values)
        for p, q in ((1.0, 2.0), (1.5, 4.0), (2.0, 8.0)):
            lhs = lp_norm(f, p)
            rhs = n ** (1.0 / p - 1.0 / q) * lp_norm(f, q)
            assert lhs <= rhs * (1 + 1e-12)

    @given(finite_values)
    def test_jensen_probability(self, values):
        n = len(values)
        f = GridFunction(MeasureSpace([1.0 / n] * n), values)
        for p, q in ((1.0, 2.0), (2.0, 5.0), (3.0, 11.0)):
            assert lp_norm(f, p) <= lp_norm(f, q) * (1 + 1e-12)

    @given(finite_values, st.integers(min_value=-8, max_value=8))
    def test_homogeneity_exact_for_pow2(self, values, k):
        f = counting(values)
        c = 2.0 ** k
        for p in (1.0, 2.0, 3.5, INFINITY):
            assert lp_norm(f.scaled(c), p) == abs(c) * lp_norm(f, p)

    @given(finite_values, st.floats(min_value=-7.0, max_value=7.0,
                                    allow_nan=False))
    def test_homogeneity_generic(self, values, c):
        f = counting(values)
        for p in (1.0, 2.5, INFINITY):
            assert lp_norm(f.scaled(c), p) == pytest.approx(
                abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-300)

    def test_large_p_approaches_sup(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = counting(rng.standard_normal(24))
            sup = lp_norm(f, INFINITY)
            assert abs(lp_norm(f, 1e4) - sup) / sup < 1e-3

    def test_large_p_no_overflow(self):
        f = counting([1e200, 2e200])
        val = lp_norm(f, 5000.0)
        assert math.isfinite(val)
        assert val == pytest.approx(2e200, rel=1e-3)

    def test_large_space_summation(self):
        # large spaces use the same pairwise summation as small ones
        n = 2500
        f = counting([1.0] * n)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(n), rel=1e-14)
        assert lp_norm(f, 1) == pytest.approx(n, rel=1e-15)


def _fsum_norm(v, w, p):
    """Reference weighted p-norm with exactly rounded summation."""
    a = np.abs(v)
    if math.isinf(p):
        return float(a.max())
    m = float(a.max())
    return m * math.fsum((w * (a / m) ** p).tolist()) ** (1.0 / p)


class TestLpNormTable:
    EXPONENTS = (1.0, 1.5, 60.0, 1e3, INFINITY)

    @pytest.mark.parametrize("n", [999, 1001, 4000])
    def test_table_matches_fsum(self, n):
        rng = np.random.default_rng(n)
        V = rng.standard_normal((3, n))
        w = rng.uniform(0.1, 2.0, n)
        got = lp_norm_table(V, w, self.EXPONENTS)
        assert got.shape == (3, len(self.EXPONENTS))
        for i in range(3):
            for j, p in enumerate(self.EXPONENTS):
                assert got[i, j] == pytest.approx(_fsum_norm(V[i], w, p), rel=1e-13)
        assert np.array_equal(lp_norm_table(V[1], w, self.EXPONENTS), got[1])

    @pytest.mark.parametrize("n", [999, 1001, 4000])
    def test_per_row_exponents_match_fsum(self, n):
        rng = np.random.default_rng(n + 1)
        ps = np.array(self.EXPONENTS)
        V = rng.standard_normal((ps.size, n))
        w = rng.uniform(0.1, 2.0, n)
        got = _row_norms(V, w, ps[:, None])
        assert got.shape == (ps.size, 1)
        for i, p in enumerate(ps):
            assert got[i, 0] == pytest.approx(_fsum_norm(V[i], w, p), rel=1e-13)

    def test_shared_calls_match_separate_calls(self):
        # a norm does not depend on which exponents share its call: INFINITY
        # entries of a mixed call skip the finite work, and p = 2 is rooted
        # the same way alone as among other exponents
        rng = np.random.default_rng(5)
        V = rng.standard_normal((300, 6))
        V[3] = 0.0
        w = rng.uniform(0.1, 2.0, 6)
        ps = np.array([1.0, 2.0, INFINITY, 1.5, 4.0, INFINITY])
        inf = np.isinf(ps)
        table = _row_norms(V, w, ps)
        assert np.array_equal(table[:, ~inf], _row_norms(V, w, ps[~inf]))
        assert np.array_equal(table[:, inf], _row_norms(V, w, ps[inf]))
        for j, p in enumerate(ps):
            assert np.array_equal(table[:, j], _row_norms(V, w, np.array([p]))[:, 0])

        per_row = np.resize(ps, V.shape[0])[:, None]
        rows = _row_norms(V, w, per_row)
        fin = np.isfinite(per_row[:, 0])
        assert np.array_equal(rows[fin], _row_norms(V[fin], w, per_row[fin]))
        assert np.array_equal(rows[~fin], _row_norms(V[~fin], w, per_row[~fin]))
        assert np.array_equal(rows[:, 0], table[np.arange(V.shape[0]),
                                               np.arange(V.shape[0]) % ps.size])

    @pytest.mark.parametrize("width", range(1, 13))
    def test_layout_does_not_change_bits(self, width):
        """C- and Fortran-ordered input give the same bits at widths 1-12,
        in table and per-row mode; the oracle's grid pass gathers its
        columns in either layout.  The kernel lays both out the same way
        (column-major below width 8, row-major from 8), so this pins the
        result, not the summation order:
        ``test_rows_do_not_depend_on_their_call`` pins that."""
        rng = np.random.default_rng(width)
        V = rng.standard_normal((500, width)) * np.exp(rng.uniform(-30.0, 30.0, (500, 1)))
        V[7] = 0.0
        w = rng.uniform(0.1, 2.0, width)
        F = np.asfortranarray(V)
        assert V.flags.c_contiguous and F.flags.f_contiguous
        ps = np.array([1.0, 1.5, 2.0, 3.7, 60.0, INFINITY])
        assert _row_norms(V, w, ps).tobytes() == _row_norms(F, w, ps).tobytes()
        per_row = np.resize(ps, V.shape[0])[:, None]
        assert _row_norms(V, w, per_row).tobytes() == _row_norms(F, w, per_row).tobytes()

    @pytest.mark.parametrize("width", range(1, 13))
    def test_rows_do_not_depend_on_their_call(self, width):
        """Every output row equals, byte for byte, a one-row call on that
        row, in both input layouts, table and per-row mode, with and without
        INFINITY; the result is C-ordered.  Below width 8 the kernel reduces
        across columns; a one-row call sums its row as one contiguous run,
        so this pins that the two orders agree.  From width 8 every row is
        a contiguous run, summed pairwise as in a one-row call.  The
        column form ``_col_norms`` gives the same bits per column."""
        rng = np.random.default_rng(100 + width)
        V = rng.standard_normal((300, width)) * np.exp(rng.uniform(-30.0, 30.0, (300, 1)))
        V[5] = 0.0
        w = rng.uniform(0.1, 2.0, width)
        mixed = np.array([1.0, 1.5, 2.0, 3.7, 60.0, INFINITY])
        finite = mixed[:-1]
        for X in (V, np.asfortranarray(V)):
            for ps in (mixed, finite, mixed[-1:], np.resize(mixed, 300)[:, None],
                       np.resize(finite, 300)[:, None]):
                out = _row_norms(X, w, ps)
                assert out.flags.c_contiguous
                for i in range(X.shape[0]):
                    one = _row_norms(X[i:i + 1], w, ps if ps.ndim == 1 else ps[i:i + 1])
                    assert out[i].tobytes() == one[0].tobytes(), (i, ps.ndim)
                if ps.ndim == 2:  # each exponent class in its own call
                    inf = np.isinf(ps[:, 0])
                    for cls in (False, True):
                        rows = np.flatnonzero(inf == cls)
                        if rows.size:
                            with np.errstate(divide="ignore"):
                                cols = _col_norms(np.ascontiguousarray(X[rows].T), w,
                                                  ps[rows, 0], cls)[0]
                            assert cols.tobytes() == out[rows, 0].tobytes(), cls

    def test_zero_rows_and_empty_exponents(self):
        got = lp_norm_table([[0.0, 0.0], [3.0, -4.0]], [1.0, 1.0], [2.0, INFINITY])
        assert np.array_equal(got, [[0.0, 0.0], [5.0, 4.0]])
        assert lp_norm_table([1.0, 2.0], [1.0, 1.0], []).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, 0.5, 0.0, -INFINITY])
    def test_rejects_nan_and_small_exponents(self, bad):
        with pytest.raises(ValueError):
            lp_norm_table([1.0, 2.0], [1.0, 1.0], [2.0, bad])


class TestTailFunction:
    def test_all_points_qualify(self):
        assert tail_function(counting([1, 1, 1]), 0.5) == 3.0

    def test_no_point_qualifies(self):
        assert tail_function(counting([1, 1, 1]), 1.5) == 0.0

    def test_threshold_counts(self):
        assert tail_function(counting([1, 2, 3]), 2.0) == 2.0

    def test_zero_threshold_gives_total_mass(self):
        space = MeasureSpace([0.25, 1.5, 3.0])
        f = GridFunction(space, [0.0, -1.0, 2.0])
        assert tail_function(f, 0.0) == space.total_mass

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            tail_function(counting([1.0]), -0.1)

    @given(finite_values)
    def test_nonincreasing_step(self, values):
        f = counting(values)
        ts = [0.0, 0.5, 1.0, 2.0, 5.0, 11.0]
        tails = [tail_function(f, t) for t in ts]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[0] == len(values)


class TestJsonLoading:
    def test_weights_default_to_counting(self):
        f = grid_function_from_spec({"values": [1.0, 2.0]})
        assert np.array_equal(f.space.weights, [1.0, 1.0])

    def test_explicit_weights(self):
        f = grid_function_from_spec({"weights": [0.5, 2.0], "values": [3.0, 4.0]})
        assert lp_norm(f, 1) == pytest.approx(0.5 * 3 + 2 * 4)

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError):
            grid_function_from_spec({"weights": [1.0]})
