import math

import numpy as np
import pytest
from scipy.integrate import quad

from glsx import (GridFunction, OperatorBoundCertificate,
                  check_sigma_condition, default_grid, fundamental_function,
                  gls_norm, grid_from_points, integral_mri_norm,
                  make_boundary, make_power, make_siamese, mri_fundamental,
                  mri_norm, restrict, sup_mri_norm, supp_ordering, to_operator,
                  verify_theorem1, verify_theorem2)
from glsx.genfun import ExponentInterval
from glsx.gls import exponent_grid


class TestSupKind:
    def test_matches_grand_norm_exactly(self):
        rng = np.random.default_rng(0)
        psi = make_power(2.0)
        grid = default_grid(psi, n_points=64)
        W = sup_mri_norm(psi, grid)
        for _ in range(5):
            f = GridFunction.on_counting(rng.standard_normal(8))
            assert mri_norm(f, W).value == gls_norm(f, psi, grid).value

    def test_fundamental_matches(self):
        psi = make_boundary(3.0, 1.0, 0.5)
        W = sup_mri_norm(psi)
        for delta in (0.2, 1.0, 7.0):
            assert mri_fundamental(W, delta).value == \
                fundamental_function(psi, delta, W.grid).value


class TestIntegralKind:
    def test_zero_function(self):
        W = integral_mri_norm(ExponentInterval(1.0, 2.0), s=1.0)
        f = GridFunction.on_counting([0.0, 0.0])
        assert mri_norm(f, W).value == 0.0

    def test_constant_profile_integrates_interval_length(self):
        # h(p) = delta**(1/p) at delta = 1 is identically one; the trapezoid
        # rule integrates constants exactly
        W = integral_mri_norm(ExponentInterval(1.0, 2.0), s=1.0, n_points=33)
        width = W.grid.points[-1] - W.grid.points[0]
        assert mri_fundamental(W, 1.0).value == pytest.approx(width, rel=1e-12)

    def test_moment_integral_against_quadrature(self):
        # integral over [1, 2] of (4 ones norm)(p) = 4**(1/p), adaptive
        # quadrature as the oracle
        oracle, err = quad(lambda p: 4.0 ** (1.0 / p), 1.0, 2.0, limit=200)
        assert err < 1e-10
        f = GridFunction.on_counting([1.0] * 4)
        W = integral_mri_norm(ExponentInterval(1.0, 2.0), s=1.0, n_points=8193,
                              spacing="linear", endpoint_offset=1e-12)
        assert mri_norm(f, W).value == pytest.approx(oracle, rel=1e-7)
        assert oracle == pytest.approx(2.6650418285724418, rel=1e-12)

    def test_fundamental_against_quadrature(self):
        oracle, err = quad(lambda p: math.e ** (1.0 / p), 1.0, 2.0, limit=200)
        assert err < 1e-10
        W = integral_mri_norm(ExponentInterval(1.0, 2.0), s=1.0, n_points=8193,
                              spacing="linear", endpoint_offset=1e-12)
        assert mri_fundamental(W, math.e).value == pytest.approx(oracle, rel=1e-7)
        assert oracle == pytest.approx(2.0200586244339744, rel=1e-12)

    def test_rearrangement_invariance_on_uniform_grid(self):
        # exactly representable spacing keeps every interior trapezoid
        # weight bit-identical; permuting the profile samples there is
        # invisible because quadrature sums use fsum
        pts = 1.0 + np.arange(17) * 0.0625
        W = integral_mri_norm(ExponentInterval(1.0, 2.5), s=1.5, points=pts)
        h = np.linspace(2.0, 3.0, 17)
        base = W.apply_to_profile(h)
        rng = np.random.default_rng(5)
        for _ in range(10):
            perm = np.arange(17)
            interior = perm[1:-1]
            rng.shuffle(interior)
            perm[1:-1] = interior
            assert W.apply_to_profile(h[perm]) == base

    def test_lattice_property(self):
        rng = np.random.default_rng(6)
        W = integral_mri_norm(ExponentInterval(1.0, 4.0), s=2.0, n_points=65)
        for _ in range(10):
            small = rng.uniform(0.0, 1.0, 6)
            big = small + rng.uniform(0.0, 1.0, 6)
            f1 = GridFunction.on_counting(small)
            f2 = GridFunction.on_counting(big)
            assert mri_norm(f1, W).value <= mri_norm(f2, W).value * (1 + 1e-12)

    def test_nondecreasing_in_delta(self):
        W = integral_mri_norm(ExponentInterval(2.0, 5.0), s=1.0)
        vals = [mri_fundamental(W, d).value for d in (1.0, 2.0, 8.0, 64.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSuppOrdering:
    def test_ordered(self):
        W = integral_mri_norm(ExponentInterval(4.0, 8.0))
        R = integral_mri_norm(ExponentInterval(1.0, 2.0))
        assert supp_ordering(W, R)

    def test_overlapping(self):
        W = integral_mri_norm(ExponentInterval(2.0, 8.0))
        R = integral_mri_norm(ExponentInterval(1.0, 3.0))
        assert not supp_ordering(W, R)

    def test_touching_boundary(self):
        W = integral_mri_norm(ExponentInterval(3.0, 5.0))
        R = integral_mri_norm(ExponentInterval(1.0, 3.0))
        assert supp_ordering(W, R)


def _magic_instance():
    sq = make_siamese(3)
    A = to_operator(sq, "counting")
    psi = restrict(make_boundary(8.0, 0.5, 0.5), 4.0, 8.0)
    nu = restrict(make_boundary(2.0, 0.5, 0.5), 1.0, 2.0)
    cert = OperatorBoundCertificate(3.0, sq.alpha, psi.domain, nu.domain)
    p_pts = exponent_grid(4, 8, 17)
    q_pts = exponent_grid(1, 2, 17)
    rep = check_sigma_condition(A, cert, p_pts, q_pts, samples=100, seed=3)
    assert rep.holds
    return A, cert, psi, nu, p_pts, q_pts


class TestVerifyTheorem2:
    def test_integral_kind_magic_square(self):
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(cert.p_interval, s=1.0, points=p_pts)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)
        rep = verify_theorem2(A, cert, W, R, samples=500, seed=3)
        assert rep.passed
        assert rep.max_lhs_rhs_ratio <= 1.0 + 1e-8

    def test_sup_kind_reduces_to_grand_norm_verdicts(self):
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = sup_mri_norm(psi, grid_from_points(psi.domain, p_pts,
                                               refinement_depth=0))
        R = sup_mri_norm(nu, grid_from_points(nu.domain, q_pts,
                                              refinement_depth=0))
        for cbar in (None, 10.0):
            rep1 = verify_theorem1(A, cert, psi, nu, samples=300, seed=3,
                                   p_points=p_pts, q_points=q_pts, cbar=cbar)
            rep2 = verify_theorem2(A, cert, W, R, samples=300, seed=3, cbar=cbar)
            assert rep1 == rep2

    def test_violation_scan_matches_loop(self):
        # a constant far below the minimal one makes every sample violate, so
        # the report carries every lhs and rhs; a loop over them is the reference
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(cert.p_interval, s=1.0, points=p_pts)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)
        rep = verify_theorem2(A, cert, W, R, samples=40, seed=4, cbar=1e-3)
        assert [v["index"] for v in rep.violations] == list(range(rep.samples))
        assert rep.max_lhs_rhs_ratio == max(v["lhs"] / v["rhs"] for v in rep.violations)
        rep0 = verify_theorem2(A, cert, W, R, samples=40, seed=4, cbar=0.0)
        assert len(rep0.violations) == rep0.samples
        assert rep0.max_lhs_rhs_ratio == 0.0
        assert all(v["rhs"] == 0.0 and v["lhs"] > 0.0 for v in rep0.violations)

    def test_zero_function_side(self):
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(cert.p_interval, s=1.0, points=p_pts)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)
        f = GridFunction(A.source, np.zeros(A.source.size))
        assert mri_norm(f, R).value == 0.0

    @pytest.mark.parametrize("cbar", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_cbar_rejected(self, cbar):
        # a negative constant would make every sample a false violation
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(cert.p_interval, s=1.0, points=p_pts)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)
        with pytest.raises(ValueError, match="cbar"):
            verify_theorem2(A, cert, W, R, samples=10, seed=0, cbar=cbar)

    @pytest.mark.parametrize("name, value", [
        ("seed", None), ("seed", 1.5), ("seed", -1), ("seed", "3"),
        ("samples", 10.7), ("samples", -1), ("samples", None), ("samples", 10.0)])
    def test_seed_and_samples_checked_before_any_work(self, monkeypatch, name, value):
        import glsx.mri
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(cert.p_interval, s=1.0, points=p_pts)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)

        def work(*args, **kwargs):
            raise AssertionError("work ran before the inputs were checked")

        monkeypatch.setattr(glsx.mri, "minimal_constant", work)
        monkeypatch.setattr(glsx.mri, "_sampled_norms", work)
        kwargs = {"samples": 10, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            verify_theorem2(A, cert, W, R, **kwargs)

    def test_interval_mismatch_rejected(self):
        A, cert, psi, nu, p_pts, q_pts = _magic_instance()
        W = integral_mri_norm(ExponentInterval(3.0, 8.0), s=1.0)
        R = integral_mri_norm(cert.q_interval, s=1.0, points=q_pts)
        with pytest.raises(ValueError):
            verify_theorem2(A, cert, W, R, samples=10, seed=0)
