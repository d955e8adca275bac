import numpy as np
import pytest

from glsx import (INFINITY, check_super_exact, magic_norm_formula,
                  make_doubly_even, make_siamese, make_uniform_magic,
                  op_norm_oracle, square_from_spec, to_operator,
                  validate_magic)


class TestConstructors:
    def test_uniform(self):
        sq = make_uniform_magic(2, 1.0)
        assert np.allclose(sq.entries, 0.5)
        assert validate_magic(sq.entries).ok
        assert make_uniform_magic(1, 7.0).entries[0, 0] == 7.0
        sq3 = make_uniform_magic(3, 3.0)
        assert np.allclose(sq3.entries, 1.0)
        assert validate_magic(sq3.entries).ok

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_siamese(self, n):
        sq = make_siamese(n)
        assert sq.alpha == n * (n * n + 1) / 2.0
        report = validate_magic(sq.entries)
        assert report.ok
        assert report.alpha == pytest.approx(sq.alpha)
        assert sorted(sq.entries.ravel().tolist()) == list(range(1, n * n + 1))

    def test_siamese_rejects_even(self):
        with pytest.raises(ValueError):
            make_siamese(4)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_doubly_even(self, n):
        sq = make_doubly_even(n)
        assert sq.alpha == n * (n * n + 1) / 2.0
        assert validate_magic(sq.entries).ok
        assert sorted(sq.entries.ravel().tolist()) == list(range(1, n * n + 1))

    def test_doubly_even_rejects_others(self):
        with pytest.raises(ValueError):
            make_doubly_even(6)


class TestValidator:
    def test_classical_square_passes(self):
        report = validate_magic([[2, 7, 6], [9, 5, 1], [4, 3, 8]])
        assert report.ok
        assert report.alpha == pytest.approx(15.0)

    def test_identity_fails(self):
        report = validate_magic(np.eye(2))
        assert not report.ok
        assert any(line.deviation > 0 for line in report.lines)

    def test_negative_entries_fail(self):
        e = [[1, -1], [-1, 1]]
        report = validate_magic(e)
        assert not report.nonnegative
        assert not report.ok

    def test_requires_square(self):
        with pytest.raises(ValueError):
            validate_magic([[1, 2, 3], [4, 5, 6]])

    def test_transpose_invariance(self):
        sq = make_siamese(5)
        assert validate_magic(sq.entries.T).ok


class TestNormFormula:
    def test_diagonal(self):
        assert magic_norm_formula(3, 15.0, 2.0, 2.0) == 15.0
        assert magic_norm_formula(4, 34.0, INFINITY, INFINITY) == 34.0

    def test_one_to_sup(self):
        assert magic_norm_formula(3, 15.0, 1.0, INFINITY) == pytest.approx(45.0)

    def test_two_to_four(self):
        assert magic_norm_formula(3, 15.0, 2.0, 4.0) == \
            pytest.approx(15.0 * 3.0 ** 0.25)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            magic_norm_formula(3, 15.0, 4.0, 2.0)

    def test_monotone(self):
        # nondecreasing in p for fixed q, nonincreasing in q for fixed p
        ps = [2.0, 3.0, 5.0, INFINITY]
        vals = [magic_norm_formula(3, 15.0, 2.0, p) for p in ps]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        qs = [1.0, 1.5, 2.0]
        vals = [magic_norm_formula(3, 15.0, q, 4.0) for q in qs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestDiagonalExactness:
    @pytest.mark.parametrize("q", [1.0, 2.0, INFINITY])
    def test_siamese3(self, q):
        sq = make_siamese(3)
        A = to_operator(sq, "counting")
        assert op_norm_oracle(A, q, q, resolution=360) == \
            pytest.approx(sq.alpha, rel=1e-6)

    def test_one_norm_is_column_sum(self):
        sq = make_siamese(3)
        A = to_operator(sq, "counting")
        col_sums = sq.entries.sum(axis=0)
        assert op_norm_oracle(A, 1, 1, resolution=180) == \
            pytest.approx(float(col_sums.max()), rel=1e-9)


class TestTransposeDuality:
    def test_dual_pairs(self):
        sq = make_siamese(3)
        A = to_operator(sq, "counting")
        At = to_operator(type(sq)(sq.entries.T.copy(), sq.alpha), "counting")
        for q, p in ((1.5, 4.0), (2.0, 2.0), (1.25, 2.5)):
            pd = p / (p - 1.0)
            qd = q / (q - 1.0)
            a = op_norm_oracle(A, q, p, resolution=240)
            b = op_norm_oracle(At, pd, qd, resolution=240)
            assert abs(a - b) <= 1e-3 * b


class TestConventionExperiment:
    def test_uniform_2x2_gap_reported(self):
        sq = make_uniform_magic(2, 1.0)
        report = check_super_exact(sq, [(2.0, 4.0)], conventions=("counting",),
                                   resolution=360)
        fwd = next(r for r in report.rows if r.ordering == "q->p")
        # constant-direction extremizer of the flat square: 2**(-1/4)
        assert fwd.oracle == pytest.approx(2.0 ** -0.25, rel=1e-6)
        assert fwd.formula == pytest.approx(2.0 ** 0.25)
        assert not fwd.match

    def test_siamese3_realizes_formula_in_one_combination(self):
        sq = make_siamese(3)
        report = check_super_exact(sq, [(1.0, INFINITY), (2.0, 4.0), (1.0, 2.0)],
                                   resolution=240)
        assert len(report.rows) == 12
        matches = report.matches()
        assert matches
        # the report records which combination realizes the closed form
        for row in matches:
            assert row.rel_gap <= 1e-3

    def test_rows_match_single_pair_oracles(self):
        sq = make_siamese(3)
        report = check_super_exact(sq, [(4.0, 1.0), (2.0, INFINITY)], resolution=60)
        assert [(r.q, r.p, r.convention, r.ordering) for r in report.rows] == [
            (q, p, c, o) for q, p in ((1.0, 4.0), (2.0, INFINITY))
            for c in ("counting", "normalized") for o in ("q->p", "p->q")]
        for row in report.rows:
            A = to_operator(sq, row.convention)
            assert row.oracle == op_norm_oracle(A, row.source_exponent,
                                                row.target_exponent, resolution=60)

    def test_rejects_invalid_square(self):
        bad = make_uniform_magic(2, 1.0)
        entries = bad.entries.copy()
        entries[0, 0] = 5.0
        with pytest.raises(ValueError):
            check_super_exact(type(bad)(entries, 1.0), [(1.0, 2.0)])


class TestSquareSpec:
    def test_round_trip(self):
        sq = make_siamese(3)
        from glsx import square_to_spec
        again = square_from_spec(square_to_spec(sq))
        assert np.array_equal(again.entries, sq.entries)
        assert again.alpha == pytest.approx(sq.alpha)

    def test_rejects_non_magic(self):
        with pytest.raises(ValueError):
            square_from_spec({"entries": [[1.0, 0.0], [0.0, 1.0]]})
