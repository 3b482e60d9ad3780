import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakmax import (
    DyadicCube,
    GridSpec,
    MaximalQuery,
    StepFunction,
    dyadic_maximal,
)
from weakmax.operators import _batch_maximal

from conftest import constant, step_functions, unit_grid
from oracles import (
    all_cubes,
    brute_force_maximal,
    cube_average,
    cube_block,
    cube_integral,
    cube_score,
    pointwise_lower_bound_check,
)


def all_queries(grid, rng):
    w = StepFunction(grid, rng.uniform(0.2, 3.0, grid.finest_count))
    alpha = 0.5 * grid.n
    return [
        MaximalQuery(),
        MaximalQuery(alpha=alpha),
        MaximalQuery(weight=w),
        MaximalQuery(alpha=alpha, weight=w),
    ]


class TestPlain:
    def test_spike(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        m = dyadic_maximal(f)
        assert np.array_equal(m.values, [4, 2, 1, 1])

    def test_constant_fixed_point(self):
        f = constant(unit_grid(3), 2.5)
        assert np.array_equal(dyadic_maximal(f).values, f.values)

    def test_dominates_f_and_root_average(self, rng):
        grid = unit_grid(5)
        f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
        m = dyadic_maximal(f)
        assert np.all(m.values >= f.values)
        assert np.all(m.values >= cube_average(f, grid.root))


class TestBatch:
    @pytest.mark.parametrize("n,depth", [(1, 6), (2, 3), (3, 2)])
    def test_rows_match_dyadic_maximal(self, n, depth, rng):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        batch = np.exp(rng.normal(0.0, 3.0, (4, grid.finest_count)))
        for alpha in (0.0, 0.5 * n):
            rows = _batch_maximal(batch, grid, alpha)
            for f_vals, row in zip(batch, rows):
                one = dyadic_maximal(StepFunction(grid, f_vals), MaximalQuery(alpha=alpha))
                assert np.array_equal(row, one.values)

    def test_validates_alpha(self):
        grid = unit_grid(2)
        with pytest.raises(ValueError, match="alpha"):
            _batch_maximal(np.ones((2, 4)), grid, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            _batch_maximal(np.ones((2, 4)), grid, -0.5)


class TestFractional:
    def test_two_cells_closed_form(self):
        f = StepFunction(unit_grid(1), [1, 0])
        m = dyadic_maximal(f, MaximalQuery(alpha=0.5))
        assert m.values[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert m.values[1] == pytest.approx(0.5, abs=1e-15)

    def test_alpha_zero_matches_plain(self, rng):
        # at alpha = 0 the factors |Q|^0 and w(Q)^0 are exactly 1.0, so the
        # scores are the plain averages bit for bit
        grid = unit_grid(4)
        f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
        w = StepFunction(grid, rng.uniform(0.2, 3.0, grid.finest_count))
        for cube in all_cubes(grid):
            assert cube_score(f, cube, MaximalQuery()) == cube_average(f, cube)
            assert (cube_score(f, cube, MaximalQuery(weight=w))
                    == cube_integral(f * w, cube) / cube_integral(w, cube))

    def test_alpha_out_of_range(self):
        f = StepFunction(unit_grid(1), [1, 0])
        with pytest.raises(ValueError):
            dyadic_maximal(f, MaximalQuery(alpha=1.0))

    def test_nan_alpha(self):
        # nan fails alpha >= 0, so the query names alpha before any sweep
        f = StepFunction(unit_grid(1), [1, 0])
        with pytest.raises(ValueError, match="alpha must be >= 0, got nan"):
            dyadic_maximal(f, MaximalQuery(alpha=math.nan))
        with pytest.raises(ValueError, match="alpha must be >= 0, got nan"):
            _batch_maximal(f.values[None], f.grid, math.nan)


class TestWeighted:
    def test_constant_weight_reduces_to_plain(self, rng):
        grid = unit_grid(4)
        f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
        w = constant(grid, 3.0)
        weighted = dyadic_maximal(f, MaximalQuery(weight=w))
        assert np.allclose(weighted.values, dyadic_maximal(f).values, rtol=1e-14)

    def test_zero_mass_cubes_skipped(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [1, 1, 1, 1])
        w = StepFunction(grid, [0, 0, 1, 1])
        m = dyadic_maximal(f, MaximalQuery(weight=w))
        assert np.all(np.isfinite(m.values))
        assert m.values[2] == pytest.approx(1.0)

    def test_degenerate_weight(self):
        grid = unit_grid(1)
        f = StepFunction(grid, [1, 1])
        w = constant(grid, 0.0)
        with pytest.raises(ValueError):
            dyadic_maximal(f, MaximalQuery(weight=w))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            MaximalQuery(alpha=-0.5)
        with pytest.raises(TypeError):
            MaximalQuery(kind="weighted")


class TestOracle:
    @pytest.mark.parametrize("n,max_depth,count", [(1, 6, 25), (2, 3, 25)])
    def test_matches_brute_force(self, n, max_depth, count, rng):
        for i in range(count):
            depth = int(rng.integers(1, max_depth + 1))
            grid = GridSpec(n, (0.0,) * n, 1.0, depth)
            f = StepFunction(grid, rng.uniform(0, 5, grid.finest_count))
            for query in all_queries(grid, rng):
                fast = dyadic_maximal(f, query).values
                slow = brute_force_maximal(f, query).values
                assert np.allclose(fast, slow, rtol=1e-13, atol=0)

    def test_guard(self):
        grid = unit_grid(13)
        f = constant(grid, 1.0)
        with pytest.raises(ValueError):
            brute_force_maximal(f)


class TestInvariants:
    def test_monotone_in_f(self, rng):
        grid = unit_grid(5)
        f_vals = rng.uniform(0, 4, grid.finest_count)
        g_vals = f_vals + rng.uniform(0, 2, grid.finest_count)
        mf = dyadic_maximal(StepFunction(grid, f_vals))
        mg = dyadic_maximal(StepFunction(grid, g_vals))
        assert np.all(mf.values <= mg.values * (1 + 1e-15))

    @given(step_functions(max_depth=3), st.floats(0.01, 50.0))
    def test_homogeneous(self, f, c):
        scaled = dyadic_maximal(f * c)
        base = dyadic_maximal(f)
        assert np.allclose(scaled.values, c * base.values, rtol=1e-12, atol=1e-300)

    def test_homogeneous_weighted_kinds(self, rng):
        grid = unit_grid(4)
        f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
        c = 3.7
        for query in all_queries(grid, rng):
            scaled = dyadic_maximal(f * c, query)
            base = dyadic_maximal(f, query)
            assert np.allclose(scaled.values, c * base.values, rtol=1e-12)


class TestLowerBound:
    def test_root_always(self, rng):
        grid = unit_grid(4)
        f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
        assert pointwise_lower_bound_check(f, grid.root, MaximalQuery())

    def test_sigma_cutoff_construction(self, rng):
        # f = sigma chi_Q scores |Q|^(alpha/n - 1) sigma(Q) on Q
        grid = unit_grid(4)
        sigma = StepFunction(grid, rng.uniform(0.1, 2.0, grid.finest_count))
        cube = DyadicCube(2, (1,))
        f = StepFunction(grid, sigma.values * grid.cell_mask(cube))
        query = MaximalQuery(alpha=0.5)
        assert pointwise_lower_bound_check(f, cube, query)
        meas = grid.cube_measure(cube.level)
        expected = meas ** (query.alpha / grid.n - 1) * cube_integral(sigma, cube)
        assert cube_score(f, cube, query) == pytest.approx(expected, rel=1e-13)
        m = dyadic_maximal(f, query)
        assert np.all(cube_block(m, cube) >= expected * (1 - 1e-12))

    def test_random_cubes(self, rng):
        grid = unit_grid(5)
        for _ in range(20):
            f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
            level = int(rng.integers(0, grid.depth + 1))
            flat = int(rng.integers(0, 2 ** level))
            cube = grid.cube_from_flat(level, flat)
            for query in all_queries(grid, rng):
                assert pointwise_lower_bound_check(f, cube, query)
