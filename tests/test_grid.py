import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given

from weakmax import DyadicCube, GridSpec, StepFunction
from weakmax.grid import cube_blocks, level_value_sums

from conftest import constant, step_functions, unit_grid
from oracles import all_cubes, cube_average, cube_block, cube_integral, cube_mask


def corners(grid, level):
    h = grid.side(level)
    return [tuple(c + i * h for c, i in zip(grid.root_corner, cube.index))
            for cube in grid.cells(level)]


def children(cube):
    """The 2^n dyadic children of ``cube``, row-major."""
    return [DyadicCube(cube.level + 1, tuple(2 * i + o for i, o in zip(cube.index, off)))
            for off in product((0, 1), repeat=len(cube.index))]


class TestCells:
    def test_unit_interval_bisection(self):
        grid = unit_grid(2)
        assert corners(grid, 1) == [(0.0,), (0.5,)]
        assert grid.side(1) == 0.5

    def test_level_zero_is_root(self):
        grid = unit_grid(2)
        assert grid.cells(0) == [DyadicCube(0, (0,))]

    def test_two_dim_quadrants(self):
        grid = unit_grid(1, n=2)
        cells = grid.cells(1)
        assert len(cells) == 4
        assert corners(grid, 1) == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]

    def test_level_out_of_range(self):
        grid = unit_grid(2)
        with pytest.raises(ValueError):
            grid.cells(3)
        with pytest.raises(ValueError):
            grid.cells(-1)

    def test_cell_cap(self):
        with pytest.raises(ValueError):
            GridSpec(1, (0.0,), 1.0, 25)
        with pytest.raises(ValueError):
            GridSpec(2, (0.0, 0.0), 1.0, 13)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            GridSpec(1, (0.0,), 0.0, 1)

    @pytest.mark.parametrize("n,side,depth,ok_side,ok_depth", [
        (3, 1e103, 0, 1e102, 0), (2, 1e-160, 0, 1e-150, 0), (1, 1e-305, 10, 1e-305, 8),
    ], ids=["root_overflows", "root_underflows", "cell_subnormal"])
    def test_measures_normal_floats(self, n, side, depth, ok_side, ok_depth):
        with pytest.raises(ValueError, match="root_side"):
            GridSpec(n, (0.0,) * n, side, depth)
        assert GridSpec(n, (0.0,) * n, ok_side, ok_depth).cell_measure > 0.0


class TestIntegrate:
    def test_quarters_mean(self):
        f = StepFunction(unit_grid(2), [1, 2, 3, 4])
        assert f.integral() == 2.5
        assert cube_average(f, f.grid.root) == 2.5

    def test_left_half(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [1, 2, 3, 4])
        assert cube_integral(f, DyadicCube(1, (0,))) == 0.75

    def test_constant(self):
        grid = unit_grid(3)
        f = constant(grid, 2.75)
        for cube in all_cubes(grid):
            expected = 2.75 * grid.cube_measure(cube.level)
            assert cube_integral(f, cube) == pytest.approx(expected, rel=1e-15)

    @given(step_functions(max_depth=3))
    def test_tower_consistency(self, f):
        grid = f.grid
        for cube in all_cubes(grid):
            if cube.level == grid.depth:
                continue
            total = sum(cube_integral(f, c) for c in children(cube))
            assert cube_integral(f, cube) == pytest.approx(total, rel=1e-15, abs=1e-300)


class TestPartition:
    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 2), (3, 1)])
    def test_cells_partition_root(self, n, depth):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        for level in range(depth + 1):
            masks = [grid.cell_mask(c) for c in grid.cells(level)]
            stacked = np.stack(masks)
            assert stacked.sum(axis=0).max() == 1  # pairwise disjoint
            assert stacked.any(axis=0).all()        # cover
            total = sum(grid.cube_measure(level) for _ in masks)
            assert total == pytest.approx(grid.root_measure, rel=1e-15)

    def test_children_union_parent(self):
        grid = unit_grid(2, n=2)
        parent = DyadicCube(1, (0, 1))
        union = np.zeros(grid.finest_count, dtype=bool)
        for child in children(parent):
            assert DyadicCube(child.level - 1, tuple(i // 2 for i in child.index)) == parent
            union |= grid.cell_mask(child)
        assert np.array_equal(union, grid.cell_mask(parent))


class TestBlocks:
    @pytest.mark.parametrize("n,depth", [(1, 3), (2, 2)])
    def test_cube_blocks_match_block(self, n, depth, rng):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        f = StepFunction(grid, rng.uniform(0, 1, grid.finest_count))
        for level in range(depth + 1):
            rows = cube_blocks(f.values, grid, level)
            for flat, cube in enumerate(grid.cells(level)):
                assert np.array_equal(rows[flat], cube_block(f, cube))

    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 2)])
    def test_level_sums_match_integrals(self, n, depth, rng):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        f = StepFunction(grid, rng.uniform(0, 1, grid.finest_count))
        sums = level_value_sums(f.values, f.grid)
        for level in range(depth + 1):
            for flat, cube in enumerate(grid.cells(level)):
                integral = sums[level][flat] * grid.cell_measure
                assert integral == pytest.approx(cube_integral(f, cube), rel=1e-14)

    @pytest.mark.parametrize("n,depth", [(1, 5), (2, 3), (3, 2)])
    def test_level_sums_batch_rows(self, n, depth, rng):
        # a (2, 3, N) batch sums each row exactly as that row alone
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        batch = np.exp(rng.normal(0.0, 4.0, (2, 3, grid.finest_count)))
        sums = level_value_sums(batch, grid)
        for level in range(depth + 1):
            assert sums[level].shape == (2, 3, 2 ** (level * n))
            for i in range(2):
                for j in range(3):
                    row = level_value_sums(batch[i, j], grid)[level]
                    assert np.array_equal(sums[level][i, j], row)

    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 2), (3, 2)])
    def test_ancestor_index_matches_masks(self, n, depth):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        for level in range(depth + 1):
            anc = grid.ancestor_index(level)
            for cube in grid.cells(level):
                flat = np.ravel_multi_index(cube.index, (2 ** level,) * n)
                assert np.array_equal(anc == flat, cube_mask(grid, cube))
                assert np.array_equal(grid.cell_mask(cube), cube_mask(grid, cube))


class TestSerialization:
    def test_round_trip_exact(self, rng):
        grid = GridSpec(2, (-1.0, 0.25), 2.0, 2)
        f = StepFunction(grid, rng.uniform(0, 3, grid.finest_count))
        clone = StepFunction.from_dict(json.loads(json.dumps(f.to_dict())))
        assert clone.grid == f.grid
        assert np.array_equal(clone.values, f.values)

    def test_schema_fields(self):
        f = StepFunction(unit_grid(1), [1, 2])
        assert set(f.to_dict()) == {"n", "root_corner", "root_side", "depth", "values"}

    def test_rejects_negative_and_nonfinite(self):
        grid = unit_grid(1)
        with pytest.raises(ValueError):
            StepFunction(grid, [1.0, -0.5])
        with pytest.raises(ValueError):
            StepFunction(grid, [1.0, float("inf")])

    def test_values_immutable(self):
        f = StepFunction(unit_grid(1), [1, 2])
        with pytest.raises(ValueError):
            f.values[0] = 3.0
