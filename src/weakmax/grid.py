"""Dyadic lattice over a fixed root cube, and exact step-function arithmetic.

Everything downstream (maximal operators, Lorentz norms, weight constants,
Calderon-Zygmund decompositions) operates on finite nonnegative functions
(the one rule ``check_cells``) constant on the 2^(depth*n) finest cells.
Cell measures are dyadic rationals times the root measure, so partitions and
parent/child sums stay exact in double precision; suprema over cubes are
finite maxima.

Cubes are half-open boxes [a, a + h)^n, so the cells at each level partition
the root with no boundary double counting.  All enumerations are row-major in
the integer cube index, which keeps reports and tests reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

# Hard cap on the finest-cell count of a grid (2^(depth*n)).
CELL_CAP = 2 ** 24


@dataclass(frozen=True)
class DyadicCube:
    """Lattice node: ``level`` 0 is the root, the finest cells sit at depth."""

    level: int
    index: tuple[int, ...]

    def to_dict(self):
        return {"level": self.level, "index": list(self.index)}


@dataclass(frozen=True)
class GridSpec:
    """Half-open root cube [corner, corner + side)^n bisected ``depth`` times."""

    n: int
    root_corner: tuple[float, ...]
    root_side: float
    depth: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not 0 < self.root_side < math.inf:
            raise ValueError(f"root_side must be positive and finite, got {self.root_side}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        corner = tuple(float(c) for c in self.root_corner)
        if len(corner) != self.n:
            raise ValueError(f"corner has {len(corner)} coordinates, expected {self.n}")
        if not all(map(math.isfinite, corner)):
            raise ValueError(f"root_corner must be finite, got {list(corner)}")
        object.__setattr__(self, "root_corner", corner)
        if 2 ** (self.depth * self.n) > CELL_CAP:
            raise ValueError(
                f"2^(depth*n) = 2^{self.depth * self.n} exceeds the cell cap {CELL_CAP}"
            )
        # Every average divides by a cube measure, and every integral sums
        # cell values times the cell measure: both must be normal floats.
        try:
            root = self.root_side ** self.n
        except OverflowError:
            root = math.inf
        if not (sys.float_info.min <= root * 2.0 ** (-self.depth * self.n) and root < math.inf):
            raise ValueError(f"root_side {self.root_side} puts the root measure or the cell "
                             f"measure (n = {self.n}, depth {self.depth}) outside the "
                             f"normal float range")

    # ------------------------------------------------------------------ sizes
    @property
    def finest_count(self) -> int:
        return 2 ** (self.depth * self.n)

    @property
    def root_measure(self) -> float:
        return self.root_side ** self.n

    def side(self, level: int) -> float:
        return self.root_side * 2.0 ** (-level)

    def cube_measure(self, level: int) -> float:
        # 2^(-level*n) is an exact power of two, so this is one rounding.
        return self.root_measure * 2.0 ** (-level * self.n)

    @property
    def cell_measure(self) -> float:
        return self.cube_measure(self.depth)

    # ------------------------------------------------------------- navigation
    def _check_level(self, level: int):
        if not 0 <= level <= self.depth:
            raise ValueError(f"level {level} outside [0, {self.depth}]")

    @property
    def root(self) -> DyadicCube:
        return DyadicCube(0, (0,) * self.n)

    def cells(self, level: int) -> list[DyadicCube]:
        """All cubes at ``level`` in row-major index order."""
        self._check_level(level)
        return [DyadicCube(level, idx) for idx in product(range(2 ** level), repeat=self.n)]

    def contains(self, outer: DyadicCube, inner: DyadicCube) -> bool:
        if inner.level < outer.level:
            return False
        shift = inner.level - outer.level
        return all(i >> shift == o for i, o in zip(inner.index, outer.index))

    def cube_from_flat(self, level: int, flat: int) -> DyadicCube:
        idx = np.unravel_index(flat, (2 ** level,) * self.n)
        return DyadicCube(level, tuple(int(i) for i in idx))

    def cell_mask(self, cube: DyadicCube) -> np.ndarray:
        """Boolean mask over the flat finest-cell array selecting ``cube``."""
        flat = np.ravel_multi_index(cube.index, (2 ** cube.level,) * self.n)
        return self.ancestor_index(cube.level) == flat

    def ancestor_index(self, level: int) -> np.ndarray:
        """Flat index, among the cubes at ``level``, of each finest cell's
        ancestor there: ``cell_mask(cells(level)[i])`` is
        ``ancestor_index(level) == i``, for all cubes of a level at once."""
        self._check_level(level)
        anc = np.arange(2 ** (level * self.n)).reshape((2 ** level,) * self.n)
        for axis in range(self.n):
            anc = np.repeat(anc, 2 ** (self.depth - level), axis=axis)
        return anc.reshape(-1)


def check_cells(values: np.ndarray):
    """Cell values, of one function or a (..., N) batch: finite and nonnegative."""
    if not np.all(np.isfinite(values)):
        raise ValueError("cell values must be finite")
    if np.any(values < 0):
        raise ValueError("cell values must be nonnegative")


class StepFunction:
    """Nonnegative function constant on the finest cells of a grid.

    ``values`` is a flat array of length 2^(depth*n) in row-major cell order;
    it is frozen after construction, so instances are safe to share.
    """

    def __init__(self, grid: GridSpec, values):
        vals = np.array(values, dtype=float).reshape(-1)
        if vals.size != grid.finest_count:
            raise ValueError(
                f"expected {grid.finest_count} cell values, got {vals.size}"
            )
        check_cells(vals)
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals

    # ------------------------------------------------------------ constructors
    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.grid, values)

    # ------------------------------------------------------------- arithmetic
    def __mul__(self, other):
        if isinstance(other, StepFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch in pointwise product")
            return StepFunction(self.grid, self.values * other.values)
        return StepFunction(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __pow__(self, e: float):
        return StepFunction(self.grid, self.values ** float(e))

    def integral(self) -> float:
        """Exact integral over the root: sum of cell values times cell measure."""
        return float(self.values.sum()) * self.grid.cell_measure

    # ----------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "n": self.grid.n,
            "root_corner": list(self.grid.root_corner),
            "root_side": self.grid.root_side,
            "depth": self.grid.depth,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StepFunction":
        grid = GridSpec(
            n=int(d["n"]),
            root_corner=tuple(d["root_corner"]),
            root_side=float(d["root_side"]),
            depth=int(d["depth"]),
        )
        return cls(grid, d["values"])


# ----------------------------------------------------------- level machinery

def coarsen_sums(arr: np.ndarray, n: int) -> np.ndarray:
    """Sum the 2^n sibling blocks of an (..., m, ..., m) array (n trailing
    axes) down to (..., m/2, ..., m/2); leading axes are batch axes."""
    lead = arr.shape[:arr.ndim - n]
    m = arr.shape[-1]
    k = len(lead)
    return arr.reshape(lead + (m // 2, 2) * n).sum(axis=tuple(range(k + 1, k + 2 * n, 2)))


def level_value_sums(values: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Per level, the sum of cell values over each cube (flat, row-major).

    ``values`` is a (..., N) batch of flat cell arrays of ``grid``, such as
    ``f.values`` or one row per function; unlike a StepFunction it may hold
    +inf.  Entry ``lev`` has shape (..., 2^(lev*n)); multiplying by the cell
    measure gives the exact integral over every cube at that level in one
    array.
    """
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    cur = values.reshape(lead + (2 ** grid.depth,) * grid.n)
    out: list[np.ndarray] = [np.empty(0)] * (grid.depth + 1)
    out[grid.depth] = cur
    for lev in range(grid.depth, 0, -1):
        cur = coarsen_sums(cur, grid.n)
        out[lev - 1] = cur
    return [a.reshape(lead + (-1,)) for a in out]


def cube_blocks(values: np.ndarray, grid: GridSpec, level: int) -> np.ndarray:
    """Reshape flat cell values to (cubes at level, cells per cube).

    Rows run over cubes in row-major index order; columns are the cells of
    each cube in row-major order, which is their ascending flat order.
    """
    n, depth = grid.n, grid.depth
    m, b = 2 ** level, 2 ** (depth - level)
    shape = []
    for _ in range(n):
        shape.extend([m, b])
    arr = values.reshape(shape)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return arr.transpose(order).reshape(m ** n, b ** n)
