import math

import numpy as np
import pytest

from glsx import (GridFunction, MeasureSpace, constant_function, default_grid,
                  gls_norm, h_of_p, make_boundary, make_degenerate, make_power,
                  tail_bound_check, young_fenchel)


def subgauss_conjugate_oracle(v: float, hi: float = 2000.0) -> float:
    """Dense-grid maximum of p*v - (p/2) log p, independent of the library."""
    p = np.linspace(1.0, hi, 1_000_000)
    return float((p * v - 0.5 * p * np.log(p)).max())


class TestHOfP:
    def test_degenerate_zero_at_anchor(self):
        assert h_of_p(make_degenerate(3.0), 3.0) == 0.0

    def test_power_values(self):
        assert h_of_p(make_power(2.0), 4.0) == pytest.approx(4.0 * math.log(2.0))
        assert h_of_p(make_power(1.0), math.e) == pytest.approx(math.e)

    def test_infinite_off_anchor(self):
        assert math.isinf(h_of_p(make_degenerate(3.0), 2.0))


class TestYoungFenchel:
    def test_degenerate_is_linear(self):
        for r in (1.0, 2.5, 4.0):
            for v in (-1.0, 0.0, 0.7, 3.0):
                assert young_fenchel(make_degenerate(r), v).hstar == r * v

    def test_subgaussian_closed_form(self):
        psi = make_power(2.0)
        for v in (0.5, 1.0, 2.0, 3.0):
            closed = math.exp(2.0 * v - 1.0) / 2.0
            assert subgauss_conjugate_oracle(v) == pytest.approx(closed, rel=1e-6)
            assert young_fenchel(psi, v).hstar == pytest.approx(closed, rel=1e-6)

    def test_nonpositive_at_zero_when_psi_geq_one(self):
        # -p log psi(p) <= 0 for psi >= 1, with equality when inf psi = 1
        assert young_fenchel(make_power(2.0), 0.0).hstar == pytest.approx(0.0, abs=1e-12)

    def test_fenchel_young_inequality(self):
        psi = make_boundary(3.0, 1.0, 1.0)
        grid = default_grid(psi, n_points=64)
        vs = np.linspace(-1.0, 4.0, 9)
        hstars = {v: young_fenchel(psi, v, grid).hstar for v in vs}
        for p in np.linspace(1.2, 2.8, 15):
            h = h_of_p(psi, p)
            for v in vs:
                assert p * v <= hstars[v] + h + 1e-9

    def test_convex_in_v(self):
        psi = make_power(2.0)
        grid = default_grid(psi, n_points=128)
        vs = np.linspace(0.0, 3.0, 13)
        hs = [young_fenchel(psi, v, grid).hstar for v in vs]
        for i in range(1, len(vs) - 1):
            lam = (vs[i] - vs[i - 1]) / (vs[i + 1] - vs[i - 1])
            chord = (1 - lam) * hs[i - 1] + lam * hs[i + 1]
            assert hs[i] <= chord + 1e-9

    def test_monotone_above_log_psi_range(self):
        psi = make_boundary(3.0, 0.5, 0.5)
        grid = default_grid(psi, n_points=64)
        psiv = psi.eval_array(grid.points_array)
        v_floor = float(np.log(psiv[np.isfinite(psiv)]).max())
        vs = np.linspace(v_floor, v_floor + 5.0, 12)
        hs = [young_fenchel(psi, v, grid).hstar for v in vs]
        assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))

    def test_unbounded_conjugate_is_flagged(self):
        # flat psi on [1, inf): sup of p*v is infinite for v > 0
        psi = constant_function(1.0)
        fd = young_fenchel(psi, 1.0)
        assert fd.endpoint_flag
        assert fd.possibly_infinite

    def test_bounded_conjugate_not_flagged(self):
        fd = young_fenchel(make_power(2.0), 1.0)
        assert not fd.endpoint_flag
        assert not fd.possibly_infinite


class TestTailBoundCheck:
    def test_zero_function_passes(self):
        f = GridFunction.on_counting([0.0, 0.0, 0.0])
        report = tail_bound_check(f, make_power(2.0), [math.e, 10.0])
        assert report.all_ok
        assert all(r.tail == 0.0 for r in report.rows)

    def test_degenerate_gives_chebyshev(self):
        # unit norm at exponent r: the bound collapses to t**(-r)
        r = 2.0
        psi = make_degenerate(r)
        f = GridFunction.on_counting([0.5, 0.5, 0.5, 0.5])
        f = f.scaled(1.0 / gls_norm(f, psi).value)
        report = tail_bound_check(f, psi, [math.e, 4.0, 10.0])
        assert report.all_ok
        for row in report.rows:
            assert row.bound == pytest.approx(row.t ** (-r), rel=1e-12)
            assert row.tail <= row.bound * (1 + 1e-9)

    def test_random_functions_hold(self):
        rng = np.random.default_rng(8)
        psi = make_power(2.0)
        grid = default_grid(psi)
        space = MeasureSpace.counting(16)
        for _ in range(100):
            f = GridFunction(space, rng.standard_normal(16))
            f = f.scaled(1.0 / gls_norm(f, psi, grid).value)
            report = tail_bound_check(f, psi, [math.e, 5.0, 10.0], grid)
            assert report.all_ok

    def test_rejects_unnormalized(self):
        f = GridFunction.on_counting([10.0, 10.0])
        with pytest.raises(ValueError):
            tail_bound_check(f, make_power(2.0), [math.e])

    def test_rejects_small_threshold(self):
        psi = make_power(2.0)
        f = GridFunction.on_counting([0.1, 0.1])
        with pytest.raises(ValueError):
            tail_bound_check(f, psi, [2.0])

    def test_rejects_non_finite_threshold(self):
        psi = make_power(2.0)
        f = GridFunction.on_counting([0.1, 0.1])
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"got {t}"):
                tail_bound_check(f, psi, [3.0, t])
