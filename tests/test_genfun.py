import numpy as np
import pytest

from glsx import (INFINITY, GridFunction, generating_function_from_spec,
                  lp_norm, make_boundary, make_classical_grand,
                  make_degenerate, make_power, natural_function, restrict)


class TestPower:
    def test_values(self):
        assert make_power(2.0).eval(4.0) == pytest.approx(2.0)
        assert make_power(1.0).eval(7.0) == pytest.approx(7.0)
        assert make_power(3.0).eval(8.0) == pytest.approx(2.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            make_power(0.0)
        with pytest.raises(ValueError):
            make_power(-1.0)


class TestBoundary:
    def test_values(self):
        assert make_boundary(3, 0, 0).eval(2.0) == pytest.approx(1.0)
        assert make_boundary(3, 1, 1).eval(2.0) == pytest.approx(1.0)
        assert make_boundary(2, 1, 0).eval(1.5) == pytest.approx(2.0)

    def test_divergence_at_left_endpoint(self):
        assert make_boundary(3, 1, 1).eval(1.0) == INFINITY
        assert make_boundary(3, 0, 1).eval(1.0) == pytest.approx(0.5)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_boundary(1.0, 1, 1)
        with pytest.raises(ValueError):
            make_boundary(3.0, -0.5, 0)
        with pytest.raises(ValueError):
            make_boundary(3.0, 0, -1)


class TestDegenerate:
    def test_one_at_anchor(self):
        psi = make_degenerate(2.0)
        assert psi.eval(2.0) == 1.0
        assert psi.eval(3.0) == INFINITY
        assert make_degenerate(1.0).eval(1.0) == 1.0

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            make_degenerate(0.5)

    def test_anchor_recorded(self):
        assert make_degenerate(3.5).anchors == (3.5,)


class TestClassicalGrand:
    def test_values(self):
        assert make_classical_grand(3.0).eval(2.0) == pytest.approx(1.0)
        assert make_classical_grand(5.0).eval(4.0) == pytest.approx(1.0)
        # 0.5**(-2/3), recomputed directly
        assert make_classical_grand(2.0).eval(1.5) == pytest.approx(
            0.5 ** (-2.0 / 3.0), rel=1e-14)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            make_classical_grand(1.0)


class TestDomains:
    def test_half_open_right_end(self):
        psi = make_boundary(3, 1, 1)
        with pytest.raises(ValueError):
            psi.eval(3.0)
        with pytest.raises(ValueError):
            psi.eval(3.5)

    def test_left_end_allowed(self):
        assert make_power(2.0).eval(1.0) == 1.0

    def test_infinity_undefined_for_power(self):
        with pytest.raises(ValueError):
            make_power(2.0).eval(INFINITY)

    def test_eval_array_names_first_exponent_outside(self):
        psi = make_boundary(3, 1, 1)
        with pytest.raises(ValueError, match=r"exponent 3\.5 outside domain"):
            psi.eval_array([1.5, 3.5, 2.0, 4.0])
        with pytest.raises(ValueError, match=r"exponent nan outside domain"):
            psi.eval_array([1.5, float("nan"), 2.0])
        assert np.array_equal(psi.eval_array([1.5, 2.0]),
                              [psi.eval(1.5), psi.eval(2.0)])


@pytest.mark.parametrize("psi", [
    make_power(1.0), make_power(2.0), make_boundary(3, 1, 1),
    make_boundary(2, 0.5, 0), make_degenerate(2.0), make_classical_grand(3.0),
])
def test_positivity_on_interior_grid(psi):
    assert psi.min_on_grid(100) > 0.0


class TestNaturalFunction:
    def test_singleton_matches_norms(self):
        f = GridFunction.on_counting([1.0, 1.0, 1.0, 1.0])
        grid = [1.0, 2.0, 4.0]
        psi = natural_function([f], grid)
        assert psi.eval(2.0) == pytest.approx(2.0)
        for p in grid:
            assert psi.eval(p) == lp_norm(f, p)

    def test_family_sup_at_one(self):
        family = [GridFunction.on_counting(v)
                  for v in ([1, 0], [0, 1], [1, 1])]
        psi = natural_function(family, [1.0, 2.0])
        assert psi.eval(1.0) == pytest.approx(2.0)

    def test_infinity_value_is_family_sup_norm(self):
        family = [GridFunction.on_counting([3.0, 1.0]),
                  GridFunction.on_counting([0.5, 2.5])]
        psi = natural_function(family, [1.0, 2.0, 8.0])
        assert psi.infinity_value == pytest.approx(3.0)

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            natural_function([], [1.0, 2.0])

    def test_rejects_zero_family(self):
        zero = GridFunction.on_counting([0.0, 0.0])
        with pytest.raises(ValueError):
            natural_function([zero], [1.0, 2.0])

    def test_interpolation_positive(self):
        rng = np.random.default_rng(1)
        f = GridFunction.on_counting(rng.standard_normal(8))
        psi = natural_function([f], np.geomspace(1, 32, 9))
        for p in np.linspace(1.0, 40.0, 100):
            assert psi.eval(p) > 0.0


class TestRestrict:
    def test_subinterval_evaluation(self):
        psi = restrict(make_power(1.0), 4.0, 8.0)
        assert psi.domain.as_tuple() == (4.0, 8.0)
        assert psi.eval(5.0) == 5.0
        with pytest.raises(ValueError):
            psi.eval(2.0)
        with pytest.raises(ValueError):
            psi.eval(8.0)

    def test_rejects_non_subinterval(self):
        with pytest.raises(ValueError):
            restrict(make_boundary(3, 1, 1), 0.5, 2.0)
        with pytest.raises(ValueError):
            restrict(make_boundary(3, 1, 1), 2.0, 5.0)


class TestSpecs:
    @pytest.mark.parametrize("spec,at,expect", [
        ({"kind": "power", "m": 2}, 4.0, 2.0),
        ({"kind": "boundary", "b": 3, "alpha": 1, "beta": 0.5}, 2.0, 1.0),
        ({"kind": "degenerate", "r": 2}, 2.0, 1.0),
        ({"kind": "classical_grand", "q": 3}, 2.0, 1.0),
    ])
    def test_parse_and_eval(self, spec, at, expect):
        psi = generating_function_from_spec(spec)
        assert psi.eval(at) == pytest.approx(expect)
        assert psi.to_spec()["kind"] == spec["kind"]

    def test_domain_override(self):
        psi = generating_function_from_spec(
            {"kind": "power", "m": 1, "domain": [4, 8]})
        assert psi.domain.as_tuple() == (4.0, 8.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generating_function_from_spec({"kind": "mystery"})
