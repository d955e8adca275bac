import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glsx import (GridFunction, MeasureSpace, PGrid,
                  classical_grand_norm, constant_function, default_grid,
                  fundamental_function, gls_norm, grid_from_points, lp_norm,
                  make_boundary, make_classical_grand, make_degenerate,
                  make_power, natural_function, sup_over_grid, young_fenchel)
from glsx import gls
from glsx.genfun import ExponentInterval
from glsx.measure import _log_stage, _root_stage

finite_values = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=2, max_size=12,
)


def simple_grid(a=1.0, b=8.0, n=64, depth=40):
    return grid_from_points(ExponentInterval(a, b),
                            np.geomspace(a, b * (1 - 1e-9), n),
                            refinement_depth=depth)


class TestSupOverGrid:
    def test_constant_ties_to_smallest(self):
        grid = simple_grid()
        res = sup_over_grid(lambda ps: [1.0 for _ in ps], grid)
        assert res.value == 1.0
        assert res.argmax_p == grid.points[0]

    def test_quadratic_peak_refined(self):
        grid = grid_from_points(ExponentInterval(1.0, 3.5),
                                np.linspace(1.0, 3.0, 21), refinement_depth=60)
        res = sup_over_grid(lambda ps: [-((p - 2.0) ** 2) for p in ps], grid)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.argmax_p == pytest.approx(2.0, abs=1e-6)

    def test_decreasing_attains_left_end(self):
        grid = grid_from_points(ExponentInterval(1.0, 4.0),
                                np.linspace(1.0, 3.9, 30))
        res = sup_over_grid(lambda ps: [1.0 / p for p in ps], grid)
        assert res.value == 1.0
        assert res.argmax_p == 1.0
        assert not res.endpoint_flag

    def test_endpoint_flag_on_growth(self):
        grid = simple_grid()
        res = sup_over_grid(lambda ps: list(ps), grid)
        assert res.endpoint_flag

    def test_rejects_nan(self):
        grid = simple_grid(n=4)
        with pytest.raises(ValueError):
            sup_over_grid(lambda ps: [float("nan") for _ in ps], grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            PGrid(ExponentInterval(1.0, 2.0), ())


class TestGlsNorm:
    def test_natural_singleton_is_one(self):
        f = GridFunction.on_counting([1.0] * 4)
        pts = np.geomspace(1, 32, 16)
        psi = natural_function([f], pts)
        grid = grid_from_points(psi.domain, pts)
        assert gls_norm(f, psi, grid).value == pytest.approx(1.0, rel=1e-12)

    def test_natural_family_normalization(self):
        # each member's grand norm under the family's natural function is
        # at most 1 and the family supremum is exactly 1 at grid resolution
        rng = np.random.default_rng(12)
        pts = np.geomspace(1.0, 32.0, 24)
        for _ in range(10):
            family = [GridFunction.on_counting(rng.standard_normal(6))
                      for _ in range(3)]
            psi = natural_function(family, pts)
            grid = grid_from_points(psi.domain, pts, refinement_depth=0)
            norms = [gls_norm(f, psi, grid).value for f in family]
            assert all(v <= 1.0 + 1e-12 for v in norms)
            assert max(norms) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_reduces_to_lp(self):
        rng = np.random.default_rng(2)
        for r in (1.0, 2.0, 3.5, 7.0):
            psi = make_degenerate(r)
            for _ in range(5):
                f = GridFunction.on_counting(rng.standard_normal(12))
                assert gls_norm(f, psi).value == pytest.approx(
                    lp_norm(f, r), rel=1e-12)

    def test_ones_power_one(self):
        # sup over p of 4**(1/p) / p is attained at p = 1 (verified against
        # a dense independent grid below)
        f = GridFunction.on_counting([1.0] * 4)
        psi = make_power(1.0)
        dense = np.linspace(1.0, 64.0, 100_000)
        oracle = float((4.0 ** (1.0 / dense) / dense).max())
        assert oracle == pytest.approx(4.0, rel=1e-9)
        res = gls_norm(f, psi, default_grid(psi))
        assert res.value == pytest.approx(4.0, rel=1e-12)
        assert res.argmax_p == 1.0

    def test_zero_function(self):
        f = GridFunction.on_counting([0.0, 0.0])
        assert gls_norm(f, make_power(2.0)).value == 0.0

    @given(finite_values, st.integers(min_value=-6, max_value=6))
    def test_homogeneity_exact_for_pow2(self, values, k):
        f = GridFunction.on_counting(values)
        psi = make_power(2.0)
        grid = default_grid(psi, n_points=32)
        c = 2.0 ** k
        assert gls_norm(f.scaled(c), psi, grid).value == \
            abs(c) * gls_norm(f, psi, grid).value

    @given(finite_values, finite_values)
    def test_subadditive(self, a, b):
        n = min(len(a), len(b))
        f = GridFunction.on_counting(a[:n])
        g = GridFunction.on_counting(b[:n])
        fg = GridFunction.on_counting(np.asarray(a[:n]) + np.asarray(b[:n]))
        psi = make_power(2.0)
        grid = default_grid(psi, n_points=32)
        lhs = gls_norm(fg, psi, grid).value
        rhs = gls_norm(f, psi, grid).value + gls_norm(g, psi, grid).value
        assert lhs <= rhs + 1e-12

    def test_grid_monotone_under_refinement(self):
        rng = np.random.default_rng(3)
        f = GridFunction.on_counting(rng.standard_normal(10))
        psi = make_power(2.0)
        coarse_pts = np.geomspace(1, 100, 20)
        fine_pts = np.unique(np.concatenate([coarse_pts, np.geomspace(1, 100, 55)]))
        coarse = grid_from_points(psi.domain, coarse_pts, refinement_depth=0)
        fine = grid_from_points(psi.domain, fine_pts, refinement_depth=0)
        assert gls_norm(f, psi, fine).value >= gls_norm(f, psi, coarse).value
        assert fundamental_function(psi, 3.0, fine).value >= \
            fundamental_function(psi, 3.0, coarse).value


class TestFundamentalFunction:
    def test_degenerate(self):
        assert fundamental_function(make_degenerate(2.0), 9.0).value == \
            pytest.approx(3.0, rel=1e-12)
        for r in (1.0, 2.0, 3.5, 7.0):
            for delta in (0.1, 1.0, 10.0):
                got = fundamental_function(make_degenerate(r), delta).value
                assert got == pytest.approx(delta ** (1.0 / r), rel=1e-9)

    def test_flat_generating_function(self):
        psi = constant_function(1.0)
        res = fundamental_function(psi, 5.0)
        assert res.value == pytest.approx(5.0, rel=1e-12)
        assert res.argmax_p == 1.0

    def test_power_one_at_e(self):
        # max of e**(1/p) / p sits at p = 1 (dense-grid cross-check)
        dense = np.linspace(1.0, 1000.0, 100_000)
        oracle = float((math.e ** (1.0 / dense) / dense).max())
        assert oracle == pytest.approx(math.e, rel=1e-9)
        res = fundamental_function(make_power(1.0), math.e)
        assert res.value == pytest.approx(math.e, rel=1e-12)

    def test_nondecreasing_in_delta(self):
        psi = make_power(2.0)
        grid = default_grid(psi, n_points=64)
        deltas = np.geomspace(0.01, 100, 25)
        vals = [fundamental_function(psi, d, grid).value for d in deltas]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            fundamental_function(make_power(1.0), 0.0)


class TestClassicalGrandNorm:
    def test_zero_function(self):
        f = GridFunction.on_counting([0.0, 0.0])
        assert classical_grand_norm(f, 2.0, [0.25, 0.5]).value == 0.0

    def test_matches_generating_function_route(self):
        rng = np.random.default_rng(4)
        q = 3.0
        psi = make_classical_grand(q)
        p_pts = np.linspace(1.0 + 1e-6, q - 1e-6, 400)
        eps = q - p_pts
        grid = grid_from_points(psi.domain, p_pts, refinement_depth=0)
        for _ in range(5):
            f = GridFunction.on_counting(rng.standard_normal(6))
            via_eps = classical_grand_norm(f, q, eps).value
            via_psi = gls_norm(f, psi, grid).value
            assert via_eps == pytest.approx(via_psi, rel=1e-12)

    def test_ones_n2_supremum(self):
        # sup over eps in (0,1) of (2 eps)**(1/(2-eps)); the dense grid is
        # the oracle and the analytic limit at eps -> 1 is 2
        f = GridFunction.on_counting([1.0, 1.0])
        eps = np.linspace(1e-7, 1.0 - 1e-7, 100_000)
        oracle = float(((2.0 * eps) ** (1.0 / (2.0 - eps))).max())
        got = classical_grand_norm(f, 2.0, eps).value
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(2.0, abs=1e-4)

    def test_rejects_out_of_range_eps(self):
        f = GridFunction.on_counting([1.0, 1.0])
        with pytest.raises(ValueError):
            classical_grand_norm(f, 2.0, [0.5, 1.5])
        with pytest.raises(ValueError):
            classical_grand_norm(f, 2.0, [0.0])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _sequential_golden_max(fn, lo, hi, iters, best, best_p):
    """The one-bracket, one-point-per-call golden search that the lockstep
    engine replaced, kept verbatim as the reference."""
    if hi <= lo or iters <= 0:
        return best, best_p
    h = hi - lo
    x1 = lo + _INVPHI2 * h
    x2 = lo + _INVPHI * h
    f1 = fn(x1)
    f2 = fn(x2)
    for x, v in ((x1, f1), (x2, f2)):
        if v > best or (v == best and x < best_p):
            best, best_p = v, x
    for _ in range(int(iters)):
        if f1 >= f2:
            hi = x2
            x2, f2 = x1, f1
            h = hi - lo
            x1 = lo + _INVPHI2 * h
            f1 = fn(x1)
            x, v = x1, f1
        else:
            lo = x1
            x1, f1 = x2, f2
            h = hi - lo
            x2 = lo + _INVPHI * h
            f2 = fn(x2)
            x, v = x2, f2
        if v > best or (v == best and x < best_p):
            best, best_p = v, x
    return best, best_p


def _sequential_engine(fn, brackets, iters, best, best_p, lookahead):
    """Reference for ``gls._golden_max``: the brackets one after another,
    every point in its own objective call; ``lookahead`` is ignored."""
    def scalar(p):
        return fn([p])[0]

    for lo, hi in brackets:
        best, best_p = _sequential_golden_max(scalar, lo, hi, iters, best, best_p)
    return best, best_p


def _bits(x):
    return struct.pack("<d", float(x))


def _same(a, b):
    return _bits(a) == _bits(b)


def _results(f, psi, grid, delta, v):
    g = gls_norm(f, psi, grid)
    d = fundamental_function(psi, delta, grid)
    y = young_fenchel(psi, v, grid)
    return [(g.value, g.argmax_p, g.endpoint_flag),
            (d.value, d.argmax_p, d.endpoint_flag),
            (y.hstar, y.argmax_p, (y.endpoint_flag, y.possibly_infinite))]


class TestLockstepMatchesSequential:
    """The lockstep refinement reproduces the sequential one bit for bit."""

    def _compare(self, monkeypatch, f, psi, grid, delta, v):
        got = _results(f, psi, grid, delta, v)
        with monkeypatch.context() as m:
            m.setattr(gls, "_golden_max", _sequential_engine)
            want = _results(f, psi, grid, delta, v)
        for (gv, ga, gf), (wv, wa, wf) in zip(got, want):
            assert _same(gv, wv) and _same(ga, wa) and gf == wf

    @pytest.mark.parametrize("n_points", [1, 2, 3, 4, 5, 64])
    @pytest.mark.parametrize("depth", [1, 40])
    def test_grid_sizes_and_depths(self, monkeypatch, n_points, depth):
        rng = np.random.default_rng(100 * n_points + depth)
        for psi in (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0)):
            grid = default_grid(psi, n_points=n_points, refinement_depth=depth)
            for weights in (np.ones(6), np.full(6, 1.0 / 6), rng.random(6) + 0.1):
                f = GridFunction(MeasureSpace(weights), rng.standard_normal(6))
                self._compare(monkeypatch, f, psi, grid, 0.1 + 9 * rng.random(),
                              rng.uniform(-1.0, 5.0))

    def test_infinite_psi_and_masked_second_bracket(self, monkeypatch):
        # boundary(3, 1, 1) is +inf at a = 1; the degenerate kind is +inf
        # off its anchor, so the conjugate's second bracket masks to -inf
        rng = np.random.default_rng(7)
        for psi in (make_boundary(3.0, 1.0, 1.0), make_boundary(3.0, 0.0, 2.0),
                    make_degenerate(2.0), make_degenerate(3.5)):
            for n_points in (2, 4, 32):
                grid = default_grid(psi, n_points=n_points)
                f = GridFunction.on_counting(rng.standard_normal(9))
                self._compare(monkeypatch, f, psi, grid, 3.0, 1.5)

    def test_include_infinity(self, monkeypatch):
        rng = np.random.default_rng(8)
        family = [GridFunction.on_counting(rng.standard_normal(5)) for _ in range(3)]
        for psi in (constant_function(1.5),
                    natural_function(family, np.geomspace(1.0, 40.0, 12))):
            grid = default_grid(psi, n_points=16)
            assert grid.include_infinity
            for f in family:
                self._compare(monkeypatch, f, psi, grid, 0.5, 0.2)

    def test_random_cases(self, monkeypatch):
        rng = np.random.default_rng(9)
        psis = (make_power(1.0), make_power(0.5), make_classical_grand(3.0),
                make_boundary(8.0, 0.5, 0.5))
        for _ in range(60):
            psi = psis[rng.integers(len(psis))]
            grid = default_grid(psi, n_points=int(rng.choice([2, 3, 7, 40])),
                                refinement_depth=int(rng.choice([1, 2, 40])))
            n = int(rng.integers(1, 30))
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            values[rng.random(n) < 0.2] = 0.0
            kind = rng.integers(3)
            weights = (np.ones(n) if kind == 0 else np.full(n, 1.0 / n) if kind == 1
                       else rng.random(n) + 0.01)
            f = GridFunction(MeasureSpace(weights), values)
            self._compare(monkeypatch, f, psi, grid, float(10.0 ** rng.uniform(-2, 2)),
                          rng.uniform(-2.0, 6.0))

    @pytest.mark.parametrize("size", [68, 69, 146, 147, 341, 342])
    def test_lookahead_depths(self, monkeypatch, size):
        # the sizes on both sides of each step of gls_norm's lookahead rule
        assert gls._lookahead(size) == {68: 4, 69: 3, 146: 3, 147: 2, 341: 2,
                                        342: 1}[size]
        rng = np.random.default_rng(size)
        for psi in (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0)):
            grid = default_grid(psi, n_points=24)
            for weights in (np.ones(size), rng.random(size) + 0.01):
                f = GridFunction(MeasureSpace(weights), rng.standard_normal(size))
                self._compare(monkeypatch, f, psi, grid, 2.0, 1.0)

    def test_engine_brackets(self):
        # every lookahead depth gives the sequential search's value and
        # argmax bit for bit, for step counts that are and are not multiples
        # of the depth; zero-width and reversed brackets are skipped, as the
        # sequential search skipped them; depth 0 returns the incumbent
        objectives = (
            lambda p: math.sin(3.0 * p) - 0.1 * p,
            lambda p: 1.0,  # every comparison ties
            lambda p: float(math.floor(2.0 * p)),  # plateaus: ties on steps
            lambda p: -math.inf if p < 2.5 else -abs(p - 5.0),  # -inf region
            lambda p: -math.inf,
        )
        cases = [[(2.0, 2.0)], [(1.0, 3.0)], [(2.0, 2.0), (1.0, 3.0)],
                 [(3.0, 1.0), (0.5, 0.9)], [(1.0, 1.5), (4.0, 7.0)],
                 [(4.0, 7.0), (1.0, 1.5)], [(1.0, 4.0), (2.0, 6.0)]]
        for scalar in objectives:
            def fn(ps, scalar=scalar):
                return [scalar(p) for p in ps]

            for brackets in cases:
                for iters in (0, 1, 2, 5, 40):
                    for lookahead in (1, 2, 3, 4, 5):
                        for best, best_p in ((-1e9, 0.0), (0.5, 2.0), (2.0, 9.0),
                                             (-math.inf, 9.0)):
                            got = gls._golden_max(fn, brackets, iters, best, best_p,
                                                  lookahead)
                            want = _sequential_engine(fn, brackets, iters, best,
                                                      best_p, lookahead)
                            assert _same(got[0], want[0]) and _same(got[1], want[1])
        # one call for the first two points of each lane, then one per round
        # of 2**d - 1 points per lane; a short last round speculates less
        calls = []

        def logged(ps):
            calls.append(len(ps))
            return [math.sin(3.0 * p) - 0.1 * p for p in ps]

        brackets = [(1.0, 1.5), (2.0, 2.0), (4.0, 7.0)]
        for lookahead, iters, want in ((1, 40, [4] + [2] * 40),
                                       (4, 40, [4] + [2 * 15] * 10),
                                       (4, 6, [4, 2 * 15, 2 * 3])):
            calls.clear()
            gls._golden_max(logged, brackets, iters, -1e9, 0.0, lookahead)
            assert calls == want

    def test_gls_norm_refinement_calls(self, monkeypatch):
        # four steps per kernel call on small functions, one on large ones
        calls = []
        engine = gls._golden_max

        def counting(fn, brackets, iters, best, best_p, lookahead):
            def counted(ps):
                calls.append(len(ps))
                return fn(ps)
            return engine(counted, brackets, iters, best, best_p, lookahead)

        monkeypatch.setattr(gls, "_golden_max", counting)
        rng = np.random.default_rng(12)
        psi = make_power(2.0)
        grid = default_grid(psi)
        for size, want in ((2, 1 + math.ceil(40 / 4)), (2000, 1 + 40)):
            calls.clear()
            gls_norm(GridFunction.on_counting(rng.standard_normal(size)), psi, grid)
            assert len(calls) == want


class TestCachedLogPath:
    def test_refined_value_is_lp_norm_over_psi(self):
        # the cached logs give the same norm as a fresh lp_norm at the argmax
        rng = np.random.default_rng(10)
        refined = 0
        for size in (2, 7, 64, 1001, 2500):
            for psi in (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0)):
                values = rng.standard_normal(size)
                values[rng.random(size) < 0.25] = 0.0
                for weights in (np.full(size, 1.0 / size), rng.random(size) + 0.01):
                    f = GridFunction(MeasureSpace(weights), values)
                    grid = default_grid(psi, n_points=24)
                    res = gls_norm(f, psi, grid)
                    if res.argmax_p in grid.points:
                        continue
                    refined += 1
                    assert _same(res.value,
                                 lp_norm(f, res.argmax_p) / psi.eval(res.argmax_p))
        assert refined >= 10


def _full_grid_ratios(logs, peak, w, pts, psiv):
    """The full grid pass that the chord pruning replaced, kept verbatim as
    the reference."""
    profile = _root_stage(logs, peak, w, pts)[0]
    with np.errstate(invalid="ignore"):
        ratios = profile / psiv  # finite / inf = 0
    return ratios


def _centres(ratios):
    k = int(np.argmax(ratios))
    masked = ratios.copy()
    masked[max(k - 1, 0):k + 2] = -math.inf
    k2 = int(np.argmax(masked))
    return k, k2, _bits(ratios[k]), _bits(masked[k2])


def _weights(rng, n, kind):
    return (np.ones(n) if kind == 0 else np.full(n, 1.0 / n) if kind == 1
            else rng.random(n) + 0.01)


class TestChordPruning:
    """The pruned grid pass gives the full pass's value, argmax and flag."""

    def _compare(self, monkeypatch, f, psi, grid):
        # the grid argmax and the second centre, as sup_over_grid picks them
        pts = grid.points_array
        absv = np.abs(f.values)[None, :]
        peak = absv.max(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):  # log(0) = -inf, as in gls_norm
            logs = _log_stage(absv, peak)
        args = (logs, peak, f.space.weights, pts, psi.eval_array(pts))
        assert _centres(gls._grid_ratios(*args)) == _centres(_full_grid_ratios(*args))
        got = gls_norm(f, psi, grid)
        with monkeypatch.context() as m:
            m.setattr(gls, "_grid_ratios", _full_grid_ratios)
            want = gls_norm(f, psi, grid)
        assert _same(got.value, want.value) and _same(got.argmax_p, want.argmax_p)
        assert got.endpoint_flag == want.endpoint_flag

    @pytest.mark.parametrize("n_points", [1, 2, 17, 18, 256])
    @pytest.mark.parametrize("depth", [0, 1, 40])
    def test_grid_sizes_and_depths(self, monkeypatch, n_points, depth):
        rng = np.random.default_rng(1000 * n_points + depth)
        # boundary(3, 1, 1) is +inf at a = 1, the degenerate kind off its anchor
        for psi in (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0),
                    make_degenerate(2.0), make_classical_grand(3.0)):
            grid = default_grid(psi, n_points=n_points, refinement_depth=depth)
            for size in (1, 5, 300):
                for kind in range(3):
                    values = rng.standard_normal(size)
                    values[rng.random(size) < 0.2] = 0.0
                    f = GridFunction(MeasureSpace(_weights(rng, size, kind)), values)
                    self._compare(monkeypatch, f, psi, grid)

    @pytest.mark.parametrize("depth", [0, 40])
    def test_include_infinity(self, monkeypatch, depth):
        rng = np.random.default_rng(11)
        family = [GridFunction.on_counting(rng.standard_normal(40)) for _ in range(3)]
        for psi in (constant_function(1.5),
                    natural_function(family, np.geomspace(1.0, 40.0, 30))):
            for n_points in (2, 18, 256):
                grid = default_grid(psi, n_points=n_points, refinement_depth=depth)
                assert grid.include_infinity
                for f in family:
                    self._compare(monkeypatch, f, psi, grid)

    def test_constant_functions_and_zeros(self, monkeypatch):
        # a constant on a probability space has every norm equal: under a
        # constant psi every grid point ties
        for psi in (constant_function(2.0), make_power(1.0),
                    make_boundary(3.0, 1.0, 1.0), make_degenerate(3.5)):
            for n_points in (18, 256):
                grid = default_grid(psi, n_points=n_points)
                for size in (1, 7, 2000):
                    for c in (0.0, 1.0, -3.5):
                        for space in (MeasureSpace.normalized(size),
                                      MeasureSpace.counting(size)):
                            self._compare(monkeypatch, GridFunction.constant(space, c),
                                          psi, grid)

    def test_subnormal_values_and_tiny_weights(self, monkeypatch):
        rng = np.random.default_rng(12)
        for case in range(200):
            psi = (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0),
                   make_classical_grand(3.0))[case % 4]
            grid = default_grid(psi, n_points=int(rng.choice([18, 64, 256])))
            size = int(rng.integers(1, 60))
            values = rng.standard_normal(size) * 10.0 ** rng.uniform(-320, -290)
            weights = _weights(rng, size, case % 3) * 10.0 ** rng.uniform(-320, 0)
            weights[weights <= 0.0] = 5e-324
            self._compare(monkeypatch, GridFunction(MeasureSpace(weights), values),
                          psi, grid)
        # psi the natural function of f itself: every ratio is 1, so any
        # rounding of a skipped point above its bound would move a centre
        for case in range(100):
            size = int(rng.integers(2, 8))
            values = rng.random(size) * 10.0 ** rng.uniform(0, 300)
            weights = np.maximum(rng.random(size) * 10.0 ** rng.uniform(-323.5, -300),
                                 5e-324)
            f = GridFunction(MeasureSpace(weights), values)
            pts = np.geomspace(1.0, 64.0, int(rng.choice([18, 40, 100])))
            psi = natural_function([f], pts)
            self._compare(monkeypatch, f, psi, grid_from_points(psi.domain, pts))

    def test_large_functions(self, monkeypatch):
        rng = np.random.default_rng(13)
        for size in (1001, 2500, 4000):
            for psi in (make_power(1.0), make_power(2.0), make_boundary(3.0, 1.0, 1.0)):
                for kind in range(3):
                    values = rng.standard_normal(size)
                    f = GridFunction(MeasureSpace(_weights(rng, size, kind)), values)
                    self._compare(monkeypatch, f, psi, default_grid(psi))

    def test_skips_most_points(self, monkeypatch):
        evaluated = []

        def counting(logs, peak, w, ps):
            evaluated.append(ps.size)
            return _root_stage(logs, peak, w, ps)

        monkeypatch.setattr(gls, "_root_stage", counting)
        psi = make_power(2.0)
        grid = default_grid(psi).with_refinement(0)
        assert len(grid.points) == 256
        values = np.random.default_rng(14).standard_normal(2500)
        gls_norm(GridFunction(MeasureSpace.normalized(2500), values), psi, grid)
        assert sum(evaluated) <= 64

    def test_guard_evaluates_every_point(self, monkeypatch):
        # subnormal norms, and weights so small that the kernel's subnormal
        # terms could outgrow the slack, switch the pruning off
        evaluated = []

        def counting(logs, peak, w, ps):
            evaluated.append(ps.size)
            return _root_stage(logs, peak, w, ps)

        monkeypatch.setattr(gls, "_root_stage", counting)
        psi = make_power(2.0)
        grid = default_grid(psi).with_refinement(0)
        values = np.random.default_rng(15).standard_normal(50)
        for f in (GridFunction(MeasureSpace.normalized(50), values * 1e-310),
                  GridFunction(MeasureSpace(np.full(50, 1e-320)), values * 1e300)):
            evaluated.clear()
            gls_norm(f, psi, grid)
            assert evaluated[0] == 17 and sum(evaluated) == 256

    def test_overflow_names_the_exponent(self):
        f = GridFunction(MeasureSpace(np.array([1e308, 1e308])), np.array([1e308, 1e308]))
        with pytest.raises(ValueError, match="Lp norm of f is not finite at p = 1.0"):
            gls_norm(f, make_power(2.0))
