import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from weakmax import (
    DyadicCube,
    GridSpec,
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

from conftest import constant, unit_grid
from oracles import (
    all_cubes,
    cube_average,
    cube_block,
    cube_integral,
    cz_stopping_cubes,
    sparse_masks,
    sparse_sum_by_cube,
)


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
                         * cube_average(dec.f, cube))
                upper = 2.0 ** (grid.n - dec.alpha) * lam
            else:
                score = cube_average(dec.f, cube)
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
        assert cube_average(f, dec.cubes[0][0]) == pytest.approx(2.0)  # in (1, 2]
        assert dec.cubes[1] == []
        assert dec.omega_measure(0) == 0.5
        assert dec.omega_measure(1) == 0.0
        check_invariants(dec)

    def test_spike_sparse_sets(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        by_key = {(e.k, e.cube.level): e for e in family.entries}
        cell = f.grid.cell_measure
        assert by_key[(-1, 0)].e_cells.size * cell == pytest.approx(0.5)
        assert by_key[(0, 1)].e_cells.size * cell == pytest.approx(0.5)  # Omega_1 empty

    def test_constant_function(self):
        f = constant(unit_grid(2), 1.0)
        dec = cz_decompose(f, a=4.0)
        populated = [k for k in range(dec.k_min, dec.k_max + 1) if dec.cubes[k]]
        assert populated == [dec.k_min]
        assert dec.cubes[dec.k_min] == [f.grid.root]
        family = build_sparse(dec)
        assert len(family.entries) == 1
        assert family.entries[0].e_cells.size * f.grid.cell_measure == pytest.approx(1.0)

    def test_zero_function_empty(self):
        f = constant(unit_grid(2), 0.0)
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

    @pytest.mark.parametrize("cells", [[4, 0, 0, 0], [0, 0, 0, 0]], ids=["spike", "zero"])
    @pytest.mark.parametrize("alpha,message", [
        (math.nan, "alpha must be >= 0"), (-1.0, "alpha must be >= 0"),
        (7.0, r"alpha must lie in \[0, n\)"),
    ], ids=["nan", "negative", "above_n"])
    def test_alpha_checked_first(self, cells, alpha, message):
        # before the base threshold, which nan alpha makes nan, and before
        # the early return for f = 0
        f = StepFunction(unit_grid(2), cells)
        with pytest.raises(ValueError, match=message):
            cz_decompose(f, alpha=alpha)

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
                e_meas = e.e_cells.size * grid.cell_measure
                assert grid.cube_measure(e.cube.level) <= 2.0 * e_meas

    def test_fractional(self):
        alpha = 0.5
        for seed in range(12):
            f = seeded(6, 300 + seed)
            dec = cz_decompose(f, alpha=alpha)
            assert dec.a == pytest.approx(2.0 ** (1 + 1 - alpha))
            check_invariants(dec)
            family = build_sparse(dec)
            for e in family.entries:
                e_meas = e.e_cells.size * f.grid.cell_measure
                assert f.grid.cube_measure(e.cube.level) <= 2.0 * e_meas

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
            assert not np.any(seen[e.e_cells])
            seen[e.e_cells] = True


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


# 1-D, 2-D and 3-D grids up to 2^14 cells, the sizes of the benchmark's
# certificate ops and beyond.
ORACLE_GRIDS = [(1, 6), (1, 10), (1, 14), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)]


def _chain(f, w, fractional):
    """(alpha, q, sigma) of the plain (p = 2) or fractional (q = 4) chain."""
    alpha, q = (f.grid.n / 4.0, 4.0) if fractional else (0.0, None)
    return alpha, q, dual_weight(w, 2.0, "apq" if fractional else "ap")


def _links(trace):
    return [(l.name, l.lhs, l.base, l.constant) for l in trace.links]


class TestMaskOracle:
    """build_sparse and sparse_sum against the per-cube mask oracles, with =="""

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("kind", ["uniform", "lognormal", "spiky"])
    @pytest.mark.parametrize("n,depth", ORACLE_GRIDS)
    def test_family_and_trace_match(self, n, depth, kind, fractional):
        grid = unit_grid(depth, n)
        for seed in range(3):
            rng = np.random.default_rng([n, depth, seed])
            f = random_step(grid, rng, kind)
            w = random_weight(grid, rng)
            alpha, q, sigma = _chain(f, w, fractional)
            dec = cz_decompose(f, alpha=alpha)
            try:
                masks = sparse_masks(dec)
            except SparsityError as exc:
                with pytest.raises(SparsityError, match=re.escape(str(exc))):
                    build_sparse(dec)
                continue
            family = build_sparse(dec)
            assert family.to_json_list() == [
                {"k": m.k, "j": m.j, "Q": m.cube.to_dict(),
                 "E_cells": np.flatnonzero(m.e_mask).tolist()} for m in masks]
            assert ([e.e_cells.size * grid.cell_measure for e in family.entries]
                    == [float(m.e_mask.sum()) * grid.cell_measure for m in masks])
            trace = sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)
            assert _links(trace) == _links(sparse_sum_by_cube(dec, masks, w, sigma, 2.0, q))

    def test_overlap_inside_one_level_matches(self):
        # a duplicate of a cube, appended at the level of the last cubes of
        # Omega_k, overlaps a cube of its own level: the error names it
        rng = np.random.default_rng(11)
        dec = cz_decompose(random_step(unit_grid(8), rng, "lognormal"))
        k = max(k for k, cubes in dec.cubes.items() if len(cubes) > 1)
        cubes = dec.cubes[k]
        cubes.append(next(c for c in cubes if c.level == cubes[-1].level))
        with pytest.raises(SparsityError, match="E sets overlap") as expected:
            sparse_masks(dec)
        with pytest.raises(SparsityError, match=re.escape(str(expected.value))):
            build_sparse(dec)

    def test_root_sparsity_error_matches(self):
        dec = cz_decompose(StepFunction(unit_grid(3), [32, 11, 11, 11, 17, 0, 0, 0]), a=4.0)
        with pytest.raises(SparsityError) as expected:
            sparse_masks(dec)
        with pytest.raises(SparsityError, match=re.escape(str(expected.value))):
            build_sparse(dec)


def _stopping_cubes_match(f, a=None, alpha=0.0):
    dec = cz_decompose(f, a=a, alpha=alpha)
    k_min, k_max, cubes, omega_mask = cz_stopping_cubes(f, a=a, alpha=alpha)
    assert (dec.k_min, dec.k_max) == (k_min, k_max)
    assert dec.cubes == cubes
    assert dec.omega_mask.keys() == omega_mask.keys()
    for k, mask in omega_mask.items():
        assert np.array_equal(dec.omega_mask[k], mask)


class TestStoppingCubeOracle:
    """cz_decompose's level-at-a-time selection against the per-cube loop"""

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("kind", ["uniform", "lognormal", "spiky"])
    @pytest.mark.parametrize("n,depth", ORACLE_GRIDS)
    def test_cubes_and_masks_match(self, n, depth, kind, fractional):
        grid = unit_grid(depth, n)
        for seed in range(3):
            f = random_step(grid, np.random.default_rng([n, depth, seed]), kind)
            _stopping_cubes_match(f, alpha=n / 4.0 if fractional else 0.0)

    @pytest.mark.parametrize("n,depth", [(1, 10), (2, 5)])
    def test_base_above_threshold(self, n, depth):
        f = random_step(unit_grid(depth, n), np.random.default_rng([n, depth]), "lognormal")
        _stopping_cubes_match(f, a=3.0 * 2.0 ** (n + 1))


@st.composite
def certificate_cases(draw):
    """(n, depth, f cells, w cells): 1-D up to depth 6, 2-D up to depth 3."""
    n = draw(st.sampled_from((1, 2)))
    depth = draw(st.integers(0, 6 // n))
    size = 2 ** (n * depth)
    logs = st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size)
    return n, depth, np.exp(draw(logs)), np.exp(draw(logs))


def _certificate(grid, f_cells, w_cells, fractional, trace=True):
    """Stopping cubes, then E cells and trace links or the SparsityError."""
    f, w = StepFunction(grid, f_cells), StepFunction(grid, w_cells)
    alpha, q, sigma = _chain(f, w, fractional)
    dec = cz_decompose(f, alpha=alpha)
    out = [dec.k_min, dec.k_max, dec.cubes]
    try:
        family = build_sparse(dec)
    except SparsityError:
        return out + ["SparsityError"]
    out.append([e.e_cells.tolist() for e in family.entries])
    if trace:
        out.append(_links(sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)))
    return out


class TestCertificateInvariance:
    @given(certificate_cases(), st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.booleans())
    def test_translation(self, case, corner, fractional):
        # nothing in the certificate reads the root corner
        n, depth, f_cells, w_cells = case
        moved = GridSpec(n, tuple(corner[:n]), 1.0, depth)
        assert (_certificate(moved, f_cells, w_cells, fractional)
                == _certificate(unit_grid(depth, n), f_cells, w_cells, fractional))

    @given(certificate_cases(), st.integers(-8, 8))
    def test_dilation_at_alpha_zero(self, case, k):
        # a side of 2^k scales every measure exactly, so each average is
        # the same float and the level sets, cubes and E cells stay put
        n, depth, f_cells, w_cells = case
        dilated = GridSpec(n, (0.0,) * n, 2.0 ** k, depth)
        assert (_certificate(dilated, f_cells, w_cells, False, trace=False)
                == _certificate(unit_grid(depth, n), f_cells, w_cells, False, trace=False))


class TestSparseSum:
    def test_trivial_chain(self):
        grid = unit_grid(2)
        f = constant(grid, 1.0)
        w = constant(grid, 1.0)
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
        for cube in all_cubes(grid):
            avg = cube_integral(f, cube) / cube_integral(sigma, cube)
            assert np.all(cube_block(m, cube) >= avg * (1 - 1e-12))

    def test_grid_mismatch(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        w = constant(unit_grid(3), 1.0)
        with pytest.raises(ValueError):
            sparse_sum(family, w, w, p=2.0)

    @pytest.mark.parametrize("q", [8.0, 2.5])
    def test_exponent_relation(self, q):
        # q > p, but 1/p - 1/q is not alpha/n = 1/4
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        w = constant(unit_grid(2), 1.0)
        family = build_sparse(cz_decompose(f, alpha=0.25))
        with pytest.raises(ValueError, match="exponent relation violated"):
            sparse_sum(family, w, dual_weight(w, 2.0, "apq"), p=2.0, alpha=0.25, q=q)

    def test_chain_kind_mismatch(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        family = build_sparse(cz_decompose(f, a=4.0))
        w = constant(unit_grid(2), 1.0)
        with pytest.raises(ValueError):
            sparse_sum(family, w, w, p=2.0, alpha=0.5, q=4.0)
