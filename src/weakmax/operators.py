"""Dyadic maximal operators evaluated exactly by one ancestor sweep.

The value at a cell is the maximum, over the cell's ancestors Q (root down
to the cell itself), of a cube score

    unweighted  |Q|^(alpha/n) <f>_Q
    weighted    w(Q)^(alpha/n) <f>_{w,Q},  <f>_{w,Q} = (1/w(Q)) int_Q f w

so alpha and the weight name the operator; alpha = 0 is the plain M^D.
alpha's domain [0, n) is checked here for every module: alpha >= 0 when a
MaximalQuery is built, alpha < n by ``_validate`` against a grid.

The sweep computes per-level score arrays bottom-up and pushes a running
maximum top-down, costing O(2^(depth*n) * depth).  Cubes with w(Q) = 0 score
zero (the 0*inf = 0 convention); the brute-force enumerator in tests/oracles.py
serves as oracle on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, StepFunction, level_value_sums


@dataclass(frozen=True)
class MaximalQuery:
    """M_alpha^D (alpha in [0, n)), weighted by ``weight`` when one is given."""

    alpha: float = 0.0
    weight: StepFunction | None = None

    def __post_init__(self):
        if not self.alpha >= 0:  # nan fails too
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def _validate(grid: GridSpec, query: MaximalQuery):
    if query.alpha >= grid.n:
        raise ValueError(f"alpha must lie in [0, n), got {query.alpha} with n={grid.n}")
    w = query.weight
    if w is not None:
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
    _validate(f.grid, query)
    grid = f.grid
    if query.weight is None:
        return _average_scores(level_value_sums(f.values, grid), grid, query.alpha)
    cm = grid.cell_measure
    s = query.alpha / grid.n
    scores = []
    fw_sums = level_value_sums((f * query.weight).values, grid)
    w_sums = level_value_sums(query.weight.values, grid)
    for lev in range(grid.depth + 1):
        w_int = w_sums[lev] * cm
        fw_int = fw_sums[lev] * cm
        avg = np.divide(fw_int, w_int, out=np.zeros_like(fw_int), where=w_int > 0)
        scores.append(np.where(w_int > 0, w_int ** s, 0.0) * avg if s else avg)
    return scores


def _average_scores(f_sums: list[np.ndarray], grid: GridSpec, alpha: float) -> list[np.ndarray]:
    """The unweighted scores |Q|^(alpha/n) <f>_Q of every row of a (..., N)
    batch of cell arrays, from its ``level_value_sums``, one (..., 2^(lev*n))
    array per level."""
    cm = grid.cell_measure
    # The factor is exactly 1.0 at alpha = 0, so skipping it there changes no
    # score and spares the plain sweep, the harness hot path, an array product.
    s = alpha / grid.n
    scores = []
    with np.errstate(over="ignore"):  # +inf where an integral passes the float range
        for lev in range(grid.depth + 1):
            meas = grid.cube_measure(lev)
            avg = f_sums[lev] * cm / meas
            scores.append(meas ** s * avg if s else avg)
    return scores


def running_ancestor_max(scores: list[np.ndarray], grid: GridSpec) -> np.ndarray:
    """Push the per-level scores down the tree, keeping the max along each path.

    Each level's array may carry leading batch axes, shape (..., 2^(lev*n));
    the result has shape (..., N).
    """
    lead = scores[0].shape[:-1]
    run = scores[0].reshape(lead + (1,) * grid.n)
    for lev in range(1, grid.depth + 1):
        m = 2 ** (lev - 1)
        # Axis pairs (parent index, child offset): each parent's running max
        # broadcasts over its 2^n children.
        run = np.maximum(run.reshape(lead + (m, 1) * grid.n),
                         scores[lev].reshape(lead + (m, 2) * grid.n))
    return run.reshape(lead + (-1,))


def dyadic_maximal(f: StepFunction, query: MaximalQuery = MaximalQuery()) -> StepFunction:
    """M_alpha^D f, weighted when the query carries a weight, as a step function."""
    scores = level_scores(f, query)
    return f.with_values(running_ancestor_max(scores, f.grid))


def _batch_maximal(values: np.ndarray, grid: GridSpec, alpha: float = 0.0) -> np.ndarray:
    """M_alpha^D of every row of a (..., N) batch of cell arrays of ``grid``.

    The same sweep as ``dyadic_maximal`` with no StepFunction per row, so the
    rows are not validated here: the caller checks that they are finite and
    nonnegative.
    """
    _validate(grid, MaximalQuery(alpha))
    return running_ancestor_max(_average_scores(level_value_sums(values, grid), grid, alpha), grid)
