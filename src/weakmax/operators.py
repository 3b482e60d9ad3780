"""Dyadic maximal operators evaluated exactly by one ancestor sweep.

All four variants share the same shape: the value at a cell is the maximum,
over the cell's ancestors Q (root down to the cell itself), of a cube score

    plain                <f>_Q
    fractional           |Q|^(alpha/n) <f>_Q
    weighted             <f>_{w,Q}  = (1/w(Q)) int_Q f w
    fractional-weighted  w(Q)^(alpha/n) <f>_{w,Q}

The sweep computes per-level score arrays bottom-up and pushes a running
maximum top-down, costing O(2^(depth*n) * depth).  Cubes with w(Q) = 0 score
zero (the 0*inf = 0 convention); a brute-force enumerator serves as oracle on
small grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, GridSpec, StepFunction, level_value_sums

KINDS = ("plain", "fractional", "weighted", "fractional-weighted")

BRUTE_FORCE_CAP = 4096


@dataclass(frozen=True)
class MaximalQuery:
    kind: str = "plain"
    alpha: float = 0.0
    weight: StepFunction | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.kind in ("plain", "weighted") and self.alpha != 0.0:
            raise ValueError(f"{self.kind} queries require alpha = 0")
        if self.is_weighted and self.weight is None:
            raise ValueError(f"{self.kind} queries require a weight")
        if not self.is_weighted and self.weight is not None:
            raise ValueError(f"{self.kind} queries take no weight")

    @property
    def is_weighted(self) -> bool:
        return self.kind in ("weighted", "fractional-weighted")

    @property
    def is_fractional(self) -> bool:
        return self.kind in ("fractional", "fractional-weighted")


def _validate(f: StepFunction, query: MaximalQuery):
    grid = f.grid
    if query.alpha >= grid.n:
        raise ValueError(f"alpha must lie in [0, n), got {query.alpha} with n={grid.n}")
    if query.is_weighted:
        w = query.weight
        if w.grid != grid:
            raise ValueError("weight grid does not match f")
        if w.integral() == 0.0:
            raise ValueError("degenerate weight: w(root) = 0")


def level_scores(f: StepFunction, query: MaximalQuery) -> list[np.ndarray]:
    """Score of every cube, one flat row-major array per level.

    This is the single source of cube scores: the maximal operator is the
    running ancestor max of these arrays, and the CZ decomposition selects its
    stopping cubes from the very same floats, so level sets agree bit-exactly.
    """
    _validate(f, query)
    grid = f.grid
    cm = grid.cell_measure
    scores = []
    if query.is_weighted:
        fw_sums = level_value_sums((f * query.weight).values, grid)
        w_sums = level_value_sums(query.weight.values, grid)
        for lev in range(grid.depth + 1):
            w_int = w_sums[lev] * cm
            fw_int = fw_sums[lev] * cm
            avg = np.divide(fw_int, w_int, out=np.zeros_like(fw_int), where=w_int > 0)
            if query.is_fractional:
                avg = np.where(w_int > 0, w_int ** (query.alpha / grid.n), 0.0) * avg
            scores.append(avg)
    else:
        f_sums = level_value_sums(f.values, grid)
        for lev in range(grid.depth + 1):
            avg = f_sums[lev] * cm / grid.cube_measure(lev)
            if query.is_fractional:
                avg = grid.cube_measure(lev) ** (query.alpha / grid.n) * avg
            scores.append(avg)
    return scores


def running_ancestor_max(scores: list[np.ndarray], grid: GridSpec) -> np.ndarray:
    """Push the per-level scores down the tree, keeping the max along each path."""
    run = scores[0].reshape((1,) * grid.n)
    for lev in range(1, grid.depth + 1):
        for axis in range(grid.n):
            run = np.repeat(run, 2, axis=axis)
        run = np.maximum(run, scores[lev].reshape((2 ** lev,) * grid.n))
    return run.reshape(-1)


def dyadic_maximal(f: StepFunction, query: MaximalQuery = MaximalQuery()) -> StepFunction:
    """M^D f (or its fractional / weighted variant) as a step function."""
    scores = level_scores(f, query)
    return f.with_values(running_ancestor_max(scores, f.grid))


def cube_score(f: StepFunction, cube: DyadicCube, query: MaximalQuery) -> float:
    """Score of one cube, via scalar integrals (oracle-grade path)."""
    _validate(f, query)
    grid = f.grid
    if query.is_weighted:
        w = query.weight
        w_int = w.integral(cube)
        if w_int == 0.0:
            return 0.0
        avg = (f * w).integral(cube) / w_int
        if query.is_fractional:
            avg *= w_int ** (query.alpha / grid.n)
        return avg
    avg = f.average(cube)
    if query.is_fractional:
        avg *= grid.cube_measure(cube.level) ** (query.alpha / grid.n)
    return avg


def brute_force_maximal(f: StepFunction, query: MaximalQuery = MaximalQuery()) -> StepFunction:
    """Enumerate every cube against every cell; oracle for dyadic_maximal."""
    grid = f.grid
    if grid.finest_count > BRUTE_FORCE_CAP:
        raise ValueError(
            f"instance too large for brute force: {grid.finest_count} > {BRUTE_FORCE_CAP}"
        )
    _validate(f, query)
    out = np.zeros(grid.finest_count)
    shape = (2 ** grid.depth,) * grid.n
    result = out.reshape(shape)
    for cube in grid.all_cubes():
        score = cube_score(f, cube, query)
        sl = grid.cell_slices(cube)
        result[sl] = np.maximum(result[sl], score)
    return f.with_values(result.reshape(-1))


def pointwise_lower_bound_check(f: StepFunction, cube: DyadicCube, query: MaximalQuery) -> bool:
    """Check M f >= score(f, cube) on every cell of cube (true by construction)."""
    maximal = dyadic_maximal(f, query)
    score = cube_score(f, cube, query)
    block = maximal.block(cube)
    return bool(np.all(block >= score - 1e-12 * max(score, 1.0)))
