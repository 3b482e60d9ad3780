import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from weakmax import (
    DyadicCube,
    MaximalQuery,
    SparsityError,
    StepFunction,
    build_sparse,
    cz_decompose,
    dual_weight,
    dyadic_maximal,
    random_step,
    random_weight,
    sparse_sum,
)

from conftest import unit_grid


def seeded(depth, seed, kind="lognormal", n=1):
    rng = np.random.default_rng(seed)
    return random_step(unit_grid(depth, n), rng, kind)


def check_invariants(dec):
    """All CZDecomposition invariants, recomputed from first principles."""
    grid = dec.f.grid
    m_vals = dec.maximal.values
    prev_mask = None
    for k in range(dec.k_min, dec.k_max + 1):
        lam = dec.a ** k
        mask = dec.omega_mask[k]
        # cell-exact set identity with the level set of the maximal function
        assert np.array_equal(mask, m_vals > lam)
        # nesting
        if prev_mask is not None:
            assert np.all(prev_mask | ~mask)  # mask subset of prev
        prev_mask = mask
        # disjoint cover: selected cubes tile Omega_k
        total = 0.0
        covered = np.zeros(grid.finest_count, dtype=bool)
        for cube in dec.cubes[k]:
            cmask = grid.cell_mask(cube)
            assert not np.any(covered & cmask)
            covered |= cmask
            total += grid.cube_measure(cube.level)
        assert np.array_equal(covered, mask)
        assert total == pytest.approx(dec.omega_measure(k), rel=1e-12, abs=1e-300)
        # maximality: the parent is not contained in Omega_k
        for cube in dec.cubes[k]:
            if cube.level > 0:
                parent = DyadicCube(cube.level - 1, tuple(i // 2 for i in cube.index))
                assert not np.all(mask[grid.cell_mask(parent)])
        # controlled averages: lower bound always, upper bound off the root
        for cube in dec.cubes[k]:
            if dec.alpha > 0:
                score = (grid.cube_measure(cube.level) ** (dec.alpha / grid.n)
                         * dec.f.average(cube))
                upper = 2.0 ** (grid.n - dec.alpha) * lam
            else:
                score = dec.f.average(cube)
                upper = 2.0 ** grid.n * lam
            assert score > lam
            if cube.level > 0:
                assert score <= upper * (1 + 1e-12)


class TestWorkedExample:
    def test_spike_levels(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        dec = cz_decompose(f, a=4.0)
        assert (dec.k_min, dec.k_max) == (-1, 1)
        assert [c.level for c in dec.cubes[-1]] == [0]
        assert dec.cubes[0] == [DyadicCube(1, (0,))]
        assert f.average(dec.cubes[0][0]) == pytest.approx(2.0)  # in (1, 2]
        assert dec.cubes[1] == []
        assert dec.omega_measure(0) == 0.5
        assert dec.omega_measure(1) == 0.0
        check_invariants(dec)

    def test_spike_sparse_sets(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        by_key = {(e.k, e.cube.level): e for e in family.entries}
        root_entry = by_key[(-1, 0)]
        assert root_entry.e_measure(f.grid) == pytest.approx(0.5)
        inner = by_key[(0, 1)]
        assert inner.e_measure(f.grid) == pytest.approx(0.5)  # Omega_1 empty

    def test_constant_function(self):
        f = StepFunction.constant(unit_grid(2), 1.0)
        dec = cz_decompose(f, a=4.0)
        populated = [k for k in range(dec.k_min, dec.k_max + 1) if dec.cubes[k]]
        assert populated == [dec.k_min]
        assert dec.cubes[dec.k_min] == [f.grid.root]
        family = build_sparse(dec)
        assert len(family.entries) == 1
        assert family.entries[0].e_measure(f.grid) == pytest.approx(1.0)

    def test_zero_function_empty(self):
        f = StepFunction.constant(unit_grid(2), 0.0)
        dec = cz_decompose(f, a=4.0)
        assert dec.k_min > dec.k_max
        assert build_sparse(dec).entries == []

    def test_base_threshold_enforced(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        with pytest.raises(ValueError):
            cz_decompose(f, a=3.0)
        cz_decompose(f, a=4.0, alpha=0.0)
        with pytest.raises(ValueError):
            cz_decompose(f, a=2.5, alpha=0.5)
        cz_decompose(f, a=2.0 ** 1.5, alpha=0.5)

    def test_nan_base_refused(self):
        # nan compares False with the threshold, so "a < threshold" lets it through
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        with pytest.raises(ValueError, match="below the required"):
            cz_decompose(f, a=math.nan)

    def test_infinite_base_refused(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        with pytest.raises(ValueError, match="must be finite"):
            cz_decompose(f, a=math.inf)

    @pytest.mark.parametrize("depth,cells", [(2, [1.7e308, 0, 0, 0]), (0, [1.5e308])])
    def test_overflowing_base_refused(self, depth, cells):
        # the powers of a finite base overflow before they bracket max M f
        # (first) or min M f (second)
        f = StepFunction(unit_grid(depth), cells)
        with pytest.raises(ValueError, match=r"base a = 1e\+308 is too large"):
            cz_decompose(f, a=1e308)


class TestInvariantSweep:
    @pytest.mark.parametrize("kind", ["lognormal", "uniform", "spiky"])
    def test_plain(self, kind):
        for seed in range(12):
            f = seeded(6, 1000 + seed, kind)
            dec = cz_decompose(f, a=4.0)
            check_invariants(dec)
            family = build_sparse(dec)
            grid = f.grid
            for e in family.entries:
                assert grid.cube_measure(e.cube.level) <= 2.0 * e.e_measure(grid)

    def test_fractional(self):
        alpha = 0.5
        for seed in range(12):
            f = seeded(6, 300 + seed)
            dec = cz_decompose(f, alpha=alpha)
            assert dec.a == pytest.approx(2.0 ** (1 + 1 - alpha))
            check_invariants(dec)
            family = build_sparse(dec)
            for e in family.entries:
                assert f.grid.cube_measure(e.cube.level) <= 2.0 * e.e_measure(f.grid)

    def test_two_dimensional(self):
        for seed in range(6):
            f = seeded(3, 500 + seed, n=2)
            dec = cz_decompose(f)
            assert dec.a == 8.0
            check_invariants(dec)
            build_sparse(dec)

    def test_e_sets_disjoint_across_levels(self):
        f = seeded(6, 41)
        family = build_sparse(cz_decompose(f, a=4.0))
        seen = np.zeros(f.grid.finest_count, dtype=bool)
        for e in family.entries:
            assert not np.any(seen & e.e_mask)
            seen |= e.e_mask


@st.composite
def sparsity_cases(draw):
    """(n, cell values, alpha) at the default base: 1-D up to depth 4 and 2-D
    up to depth 2, integer, lognormal or single-spike values, and alpha in
    {0, n/4, n/2}."""
    n = draw(st.sampled_from((1, 2)))
    size = 2 ** (n * draw(st.integers(0, 4 // n)))
    kind = draw(st.sampled_from(("integer", "lognormal", "spike")))
    if kind == "integer":
        values = draw(st.lists(st.integers(0, 64), min_size=size, max_size=size))
    elif kind == "lognormal":
        logs = draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
        values = np.exp(logs).tolist()
    else:
        values = [0.0] * size
        values[draw(st.integers(0, size - 1))] = draw(st.floats(0.125, 64.0))
    return n, values, draw(st.sampled_from((0.0, n / 4, n / 2)))


# Root |Q| <= 2|E| failures found by a search over sparsity_cases, as shrunk.
ROOT_FAILURES = [
    (1, [0, 0, 0, 17, 0, 0, 1, 64], 0.0),
    (1, [0, 54, 27, 64], 0.25),
    (1, np.exp([0, 0, 0, 3, 0, 0, 3, 4]).tolist(), 0.0),
    (1, np.exp([0, 0, 0, 0, 0, 3, 4, 3.5, 0, 0, 0, 0, 0, 0, 0, 4]).tolist(), 0.25),
    (2, [0, 9, 9, 9], 0.0),
    (2, np.exp([0, 0, 0, 0, 0, 0, 0, 3, 0, 4, 3.5, 0, 0, 0, 0, 0]).tolist(), 0.0),
    (2, np.exp([0, 0, 0, 0, 0, 0, 0, 2.5, 0, 3.5, 0, 2.5, 0, 0, 0, 3]).tolist(), 0.5),
]


def _root_failure_examples(test):
    for case in ROOT_FAILURES:
        test = example(case)(test)
    return test


def _decompose(case):
    n, values, alpha = case
    f = StepFunction(unit_grid((len(values).bit_length() - 1) // n, n), values)
    return f, cz_decompose(f, alpha=alpha)


def _unsparse_cubes(dec) -> list:
    """Stopping cubes with |Q| > 2|E|, E = Q minus Omega_{k+1}, from cell
    counts."""
    grid = dec.f.grid
    out = []
    for k in range(dec.k_min, dec.k_max + 1):
        above = dec.omega_mask.get(k + 1, np.zeros(grid.finest_count, dtype=bool))
        for cube in dec.cubes[k]:
            q_mask = grid.cell_mask(cube)
            if q_mask.sum() > 2 * (q_mask & ~above).sum():
                out.append(cube)
    return out


class TestRootEdgeCase:
    def test_concentrated_mass_trips_root_sparsity(self):
        # The root has no parent to cap its average, so a function whose mass
        # concentrates just below the next level-set threshold can push
        # Omega_{k+1} over half of the root.  Worked instance: the root is
        # selected at k = 1 (a = 4, average 10.25 in (4, 16]) while
        # {M f > 16} = [0, 5/8) covers more than half.
        f = StepFunction(unit_grid(3), [32, 11, 11, 11, 17, 0, 0, 0])
        dec = cz_decompose(f, a=4.0)
        with pytest.raises(SparsityError):
            build_sparse(dec)

    @pytest.mark.parametrize("case", ROOT_FAILURES)
    def test_shrunk_cases_fail_at_the_root(self, case):
        f, dec = _decompose(case)
        assert _unsparse_cubes(dec) == [f.grid.root]
        with pytest.raises(SparsityError, match="level=0"):
            build_sparse(dec)

    @given(sparsity_cases())
    @_root_failure_examples
    def test_only_the_root_can_fail(self, case):
        f, dec = _decompose(case)
        failing = _unsparse_cubes(dec)
        assert all(cube == f.grid.root for cube in failing)
        if failing:
            with pytest.raises(SparsityError):
                build_sparse(dec)
        else:
            build_sparse(dec)


class TestSparseSum:
    def test_trivial_chain(self):
        grid = unit_grid(2)
        f = StepFunction.constant(grid, 1.0)
        w = StepFunction.constant(grid, 1.0)
        family = build_sparse(cz_decompose(f, a=4.0))
        trace = sparse_sum(family, w, dual_weight(w, 2.0), p=2.0)
        assert trace.all_hold
        names = [l.name for l in trace.links]
        assert names[0] == "weak_norm_vs_level_sum"
        assert names[-1] == "weighted_maximal_bootstrap"

    def test_spike_with_weight(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [4, 0, 0, 0])
        w = StepFunction(grid, [2, 2, 1, 1])
        family = build_sparse(cz_decompose(f, a=4.0))
        trace = sparse_sum(family, w, dual_weight(w, 2.0), p=2.0)
        assert trace.all_hold
        for link in trace.links[:-1]:
            assert link.holds is True

    def test_seeded_plain_chain(self):
        grid = unit_grid(6)
        for seed in range(8):
            rng = np.random.default_rng(900 + seed)
            f = random_step(grid, rng)
            w = random_weight(grid, rng)
            family = build_sparse(cz_decompose(f, a=4.0))
            for p in (1.5, 2.0, 3.0):
                trace = sparse_sum(family, w, dual_weight(w, p), p=p)
                assert trace.all_hold, [l.to_dict() for l in trace.links]

    def test_seeded_fractional_chain(self):
        grid = unit_grid(6)
        p, q, alpha = 2.0, 4.0, 0.25
        for seed in range(8):
            rng = np.random.default_rng(950 + seed)
            f = random_step(grid, rng)
            w = random_weight(grid, rng, log_spread=0.5)
            family = build_sparse(cz_decompose(f, alpha=alpha))
            trace = sparse_sum(family, w, dual_weight(w, p, "apq"), p=p, alpha=alpha, q=q)
            assert trace.all_hold, [l.to_dict() for l in trace.links]
            tail = trace.links[-1]
            assert tail.constant is None and tail.holds is None
            assert math.isfinite(tail.lhs / tail.base)

    def test_bootstrap_step_pointwise(self):
        # M_sigma(f sigma^{-1}) >= <f sigma^{-1}>_{sigma, Q} on Q backs the
        # disjoint-energy link; check it directly on a seeded instance
        grid = unit_grid(5)
        rng = np.random.default_rng(7)
        f = random_step(grid, rng)
        w = random_weight(grid, rng)
        sigma = dual_weight(w, 2.0)
        g = StepFunction(grid, f.values / sigma.values)
        m = dyadic_maximal(g, MaximalQuery(weight=sigma))
        for cube in grid.all_cubes():
            avg = f.integral(cube) / sigma.integral(cube)
            assert np.all(m.block(cube) >= avg * (1 - 1e-12))

    def test_grid_mismatch(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        w = StepFunction.constant(unit_grid(3), 1.0)
        with pytest.raises(ValueError):
            sparse_sum(family, w, w, p=2.0)

    def test_chain_kind_mismatch(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        w = StepFunction.constant(unit_grid(2), 1.0)
        with pytest.raises(ValueError):
            sparse_sum(family, w, w, p=2.0, alpha=0.5, q=4.0)
