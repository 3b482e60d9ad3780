import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("weakmax", deadline=None, derandomize=True)
settings.load_profile("weakmax")

from weakmax import GridSpec, StepFunction


def unit_grid(depth, n=1):
    return GridSpec(n, (0.0,) * n, 1.0, depth)


def constant(grid, c):
    """The constant step function c on ``grid``."""
    return StepFunction(grid, np.full(grid.finest_count, float(c)))


@st.composite
def step_functions(st_draw, max_depth=3, n=1, min_value=0.0, max_value=8.0):
    depth = st_draw(st.integers(min_value=0, max_value=max_depth))
    size = 2 ** (depth * n)
    vals = st_draw(st.lists(
        st.floats(min_value=min_value, max_value=max_value,
                  allow_nan=False, allow_infinity=False),
        min_size=size, max_size=size))
    return StepFunction(unit_grid(depth, n), vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
