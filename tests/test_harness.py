import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from weakmax import (
    GridSpec,
    MaximalQuery,
    PowerWeight,
    StepFunction,
    a1_constant,
    a1q_constant,
    ap_constant,
    ap_star_constant,
    apq_constant,
    apq_star_constant,
    dual_weight,
    dyadic_maximal,
    lemma_suite,
    multiplier_ratio,
    necessity_check,
    random_step,
    random_weight,
    rh_constant,
    sufficiency_check,
    verify_weight,
    weak_norm,
)
from weakmax import cuberows, grid as grid_module, harness, weights
from weakmax.grid import cube_blocks
from weakmax.lorentz import _sorted_scan, weak_scan

from conftest import constant, unit_grid
from test_weights import power_weights
from oracles import (all_cubes, cells, chebyshev_check, dense_cube_ratios, lemma_subcube_scan,
                     lemma_union_scan, random_cell_union)


class TestMultiplierRatio:
    def test_trivial_one(self):
        grid = unit_grid(3)
        one = constant(grid, 1.0)
        assert multiplier_ratio(one, one, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_spike_ratio_one(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [4, 0, 0, 0])
        w = constant(grid, 1.0)
        # numerator weak_norm([4,2,1,1], 2) = 2, denominator (16/4)^{1/2} = 2
        assert multiplier_ratio(f, w, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_routes_agree(self, rng):
        grid = unit_grid(5)
        for _ in range(40):
            f = random_step(grid, rng)
            w = random_weight(grid, rng)
            for p in (1.5, 2.0, 3.0):
                mf = dyadic_maximal(f)
                direct = weak_norm((w ** (1 / p)) * mf, p)
                via_identity = weak_norm(w * (mf ** p), 1.0) ** (1 / p)
                assert direct == pytest.approx(via_identity, rel=1e-12)

    def test_fractional_routes_agree(self, rng):
        grid = unit_grid(5)
        p, q, alpha = 2.0, 4.0, 0.5
        for _ in range(20):
            f = random_step(grid, rng)
            w = random_weight(grid, rng)
            mf = dyadic_maximal(f, MaximalQuery(alpha=alpha))
            direct = weak_norm(w * mf, q)
            via_identity = weak_norm((w ** q) * (mf ** q), 1.0) ** (1 / q)
            assert direct == pytest.approx(via_identity, rel=1e-12)

    def test_degenerate_input(self):
        grid = unit_grid(2)
        zero = constant(grid, 0.0)
        one = constant(grid, 1.0)
        with pytest.raises(ValueError):
            multiplier_ratio(zero, one, 2.0)

    def test_alpha_needs_q(self):
        # alpha > 0 names the fractional operator, which needs q; the plain
        # chain must not run under a report that records the alpha.
        grid = unit_grid(3)
        w = random_weight(grid, np.random.default_rng(8))
        f = random_step(grid, np.random.default_rng(9))
        with pytest.raises(ValueError, match="needs q"):
            multiplier_ratio(f, w, 2.0, alpha=0.5)
        with pytest.raises(ValueError, match="needs q"):
            necessity_check(w, 2.0, alpha=0.5)
        with pytest.raises(ValueError, match="needs q"):
            sufficiency_check(w, 2.0, alpha=0.5, n_random=2)
        with pytest.raises(ValueError, match="needs q"):
            verify_weight(w, 2.0, alpha=0.5, n_random=2)
        # A power weight outside the class has an infinite, vacuous bound.
        outside = PowerWeight(0.0, -1.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="needs q"):
            sufficiency_check(outside, 2.0, alpha=0.5, n_random=2, depth=4)
        with pytest.raises(ValueError, match="needs q"):
            verify_weight(outside, 2.0, alpha=0.5, n_random=2, depth=4)

    def test_negative_alpha(self, monkeypatch):
        # alpha < 0 names no operator: every driver refuses it with
        # MaximalQuery's message, with or without q, before the star scan
        grid = unit_grid(3)
        w = random_weight(grid, np.random.default_rng(8))
        f = random_step(grid, np.random.default_rng(9))

        def no_scan(*args, **kwargs):
            raise AssertionError("the star scan ran before alpha was checked")
        monkeypatch.setattr(harness, "star_constant", no_scan)
        for q in (None, 4.0):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                multiplier_ratio(f, w, 2.0, alpha=-0.5, q=q)
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                necessity_check(w, 2.0, alpha=-0.5, q=q)
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                sufficiency_check(w, 2.0, alpha=-0.5, q=q, n_random=2)
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                verify_weight(w, 2.0, alpha=-0.5, q=q, n_random=2)

    def test_exponent_relation(self, monkeypatch):
        # 1/p - 1/q = alpha/n fails at p = 2, q = 8 in one dimension, with
        # alpha = 0.5 and with alpha = 0 (a q given names the fractional
        # chain at any alpha): every driver refuses it, before the star scan
        grid = unit_grid(3)
        w = random_weight(grid, np.random.default_rng(8))
        f = random_step(grid, np.random.default_rng(9))

        def no_scan(*args, **kwargs):
            raise AssertionError("the star scan ran before the relation was checked")
        monkeypatch.setattr(harness, "star_constant", no_scan)
        for alpha in (0.5, 0.0):
            with pytest.raises(ValueError, match="exponent relation violated"):
                multiplier_ratio(f, w, 2.0, alpha=alpha, q=8.0)
            with pytest.raises(ValueError, match="exponent relation violated"):
                necessity_check(w, 2.0, alpha=alpha, q=8.0)
            with pytest.raises(ValueError, match="exponent relation violated"):
                sufficiency_check(w, 2.0, alpha=alpha, q=8.0, n_random=2)
            with pytest.raises(ValueError, match="exponent relation violated"):
                verify_weight(w, 2.0, alpha=alpha, q=8.0, n_random=2)

    def test_dual_weight_overflow(self):
        # at p = 1.5, sigma = w^-2 = 1e400 on the first cell: the drivers
        # report sigma, before any scan
        w = StepFunction(unit_grid(1), [1e-200, 1.0])
        with pytest.raises(ValueError, match=r"sigma = w\^-2 overflows"):
            lemma_suite(w, 1.5, n_random=2, seed=0)
        with pytest.raises(ValueError, match=r"sigma = w\^-2 overflows"):
            necessity_check(w, 1.5)


# The seed's per-function loops, kept as the oracle of the chunked engine:
# one validated StepFunction per suite item, one dyadic_maximal sweep and two
# weak_norm scans per ratio.

def _oracle_ratio(f, w, p, alpha=0.0, q=None):
    if q is None:
        mf = dyadic_maximal(f)
        num = weak_norm((w ** (1.0 / p)) * mf, p)
        cross = weak_norm(w * (mf ** p), 1.0) ** (1.0 / p)
        den = (float((f.values ** p * w.values).sum()) * f.grid.cell_measure) ** (1.0 / p)
    else:
        mf = dyadic_maximal(f, MaximalQuery(alpha))
        num = weak_norm(w * mf, q)
        cross = weak_norm((w ** q) * (mf ** q), 1.0) ** (1.0 / q)
        den = (float((f.values ** p * w.values ** p).sum()) * f.grid.cell_measure) ** (1.0 / p)
    assert den != 0.0
    assert abs(num - cross) <= 1e-10 * max(num, cross, 1e-300)
    return num / den


def _oracle_suite(grid, sigma, seed, n_random):
    for cube in all_cubes(grid):
        yield f"chi[{cube.level},{cube.index}]", StepFunction(grid, grid.cell_mask(cube).astype(float))
    for cube in all_cubes(grid):
        yield (f"sigma_chi[{cube.level},{cube.index}]",
               StepFunction(grid, sigma.values * grid.cell_mask(cube)))
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        yield f"random[{i}]", random_step(grid, rng)


def _oracle_suite_ratios(w, sigma, p, alpha, q, seed, n_random):
    return [(label, _oracle_ratio(f, w, p, alpha, q))
            for label, f in _oracle_suite(w.grid, sigma, seed, n_random)
            if np.any(f.values > 0)]


def _first_maximum(pairs):
    best, best_key = -math.inf, None
    for key, ratio in pairs:
        if ratio > best:
            best, best_key = ratio, key
    return best, best_key


def _oracle_necessity(w, sigma, p, alpha, q):
    rows = []
    for cube in all_cubes(w.grid):
        f = StepFunction(w.grid, sigma.values * w.grid.cell_mask(cube))
        rows.append({"level": cube.level, "index": list(cube.index),
                     "ratio": _oracle_ratio(f, w, p, alpha, q)})
    best, row = _first_maximum((r, r["ratio"]) for r in rows)
    return best, {"level": row["level"], "index": row["index"]}, rows


def _chunked_suite_ratios(w, sigma, p, alpha, q, seed, n_random):
    # The sufficiency suite as the chunked engine evaluates it, labelled as
    # in the reports; the ratio arrays are in lattice order, nan where the
    # row vanishes.
    kernel = harness._RatioKernel(w, p, q)
    sigma_rows, chi_rows = harness._cube_ratios(
        kernel, np.stack([sigma.values, np.ones(w.grid.finest_count)]), alpha)
    cubes = list(all_cubes(w.grid))
    rows = [("chi", c, r) for c, r in zip(cubes, chi_rows.tolist())]
    rows += [("sigma_chi", c, r) for c, r in zip(cubes, sigma_rows.tolist())]
    return ([(f"{kind}[{c.level},{c.index}]", r) for kind, c, r in rows if not math.isnan(r)]
            + [(f"random[{i}]", r) for i, r in
               enumerate(harness._random_ratios(kernel, alpha, seed, n_random).tolist())])


ORACLE_GRIDS = [(1, 6), (1, 10), (2, 3), (2, 4), (3, 2)]


class TestChunkedEngineOracle:
    """The chunked checks agree with the per-function loops to the last bit."""

    @staticmethod
    def _weight(n, depth):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        return random_weight(grid, np.random.default_rng(100 * n + depth), log_spread=1.2)

    @staticmethod
    def _assert_agrees(w, p, alpha, q, depth=None, seed=5, n_random=40):
        flavor = "ap" if q is None else "apq"
        w_tab = w.tabulate(depth) if isinstance(w, PowerWeight) else w
        sigma = dual_weight(w, p, flavor)
        sigma_tab = sigma.tabulate(depth) if isinstance(w, PowerWeight) else sigma

        nec = necessity_check(w, p, alpha, q, depth=depth)
        best, cube, rows = _oracle_necessity(w_tab, sigma_tab, p, alpha, q)
        assert nec.measured_ratio == best
        assert nec.witnesses["cube"] == cube
        assert nec.per_cube == rows

        expected = _oracle_suite_ratios(w_tab, sigma_tab, p, alpha, q, seed, n_random)
        assert _chunked_suite_ratios(w_tab, sigma_tab, p, alpha, q, seed, n_random) == expected

        suf = sufficiency_check(w, p, alpha, q, seed=seed, n_random=n_random, depth=depth)
        best, label = _first_maximum(expected)
        assert suf.measured_ratio == best
        assert suf.witnesses["function"] == label

    @pytest.mark.parametrize("n,depth", ORACLE_GRIDS)
    def test_plain(self, n, depth):
        self._assert_agrees(self._weight(n, depth), 2.0, 0.0, None)

    @pytest.mark.parametrize("n,depth", ORACLE_GRIDS)
    def test_fractional(self, n, depth):
        alpha = n / 4.0  # 1/p - 1/q = alpha/n at p = 2, q = 4
        self._assert_agrees(self._weight(n, depth), 2.0, alpha, 4.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_power_weight(self, p):
        self._assert_agrees(PowerWeight(0.0, -1.0, 0.0, 1.0), p, 0.0, None, depth=6)

    @pytest.mark.parametrize("n,depth", [(1, 6), (2, 3)])
    def test_ties_keep_first_maximum(self, n, depth):
        # A flat weight ties every cube of a level with its neighbours, and
        # chi_Q with sigma chi_Q; the first maximum in suite order wins.
        w = constant(GridSpec(n, (0.0,) * n, 1.0, depth), 2.0)
        self._assert_agrees(w, 2.0, 0.0, None)
        self._assert_agrees(w, 2.0, n / 4.0, 4.0)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n,depth", [(1, 6), (2, 3), (3, 2)])
    def test_small_chunks(self, monkeypatch, rows, n, depth):
        # Chunk boundaries inside every level and suite part, and at each
        # boundary between the parts.
        monkeypatch.setattr(harness, "CHUNK_BYTES", rows * 8 * 2 ** (n * depth))
        w = self._weight(n, depth)
        self._assert_agrees(w, 3.0, 0.0, None, n_random=7)
        self._assert_agrees(w, 2.0, n / 4.0, 4.0, n_random=7)


def _name(driver):
    return driver.__name__


def _oracle_cube_ratios(w, values, p, alpha, q):
    # one validated function and one sweep per cube, None where g chi_Q = 0
    out = []
    for cube in all_cubes(w.grid):
        f = StepFunction(w.grid, values * w.grid.cell_mask(cube))
        out.append((cube, _oracle_ratio(f, w, p, alpha, q) if np.any(f.values > 0) else None))
    return out


class TestClosedFormRows:
    """The closed-form chi_Q and sigma chi_Q rows, swept together, equal a
    sweep of each row to the last bit, and fail with the errors of the swept
    rows."""

    @staticmethod
    def _assert_rows(monkeypatch, rows, w, suites, p, alpha=0.0, q=None):
        # suites: the g of each suite, evaluated in one shared sweep into an
        # (S, C) array in the oracle's cube order, nan where it has None
        if rows is not None:
            monkeypatch.setattr(harness, "CHUNK_BYTES", rows * 8 * w.grid.finest_count)
        expected = [_oracle_cube_ratios(w, g, p, alpha, q) for g in suites]
        ratios = harness._cube_ratios(harness._RatioKernel(w, p, q), np.stack(suites), alpha)
        assert ratios.shape == (len(suites), len(expected[0]))
        assert [[None if math.isnan(r) else r for r in row] for row in ratios.tolist()] \
            == [[r for _, r in row] for row in expected]
        return expected

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("n,depth,alpha", [(2, 3, 1.999), (1, 6, 0.999)])
    def test_alpha_near_n(self, monkeypatch, rows, n, depth, alpha):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        rng = np.random.default_rng(10 * n + depth)
        w = random_weight(grid, rng)
        g = harness._lognormal(rng, grid.finest_count)
        self._assert_rows(monkeypatch, rows, w, [g, np.ones(grid.finest_count)], 2.0, alpha, 4.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha,q", [(0.0, None), (0.5, 4.0)])
    def test_depth_zero(self, monkeypatch, n, alpha, q):
        grid = GridSpec(n, (0.0,) * n, 2.0, 0)
        w = StepFunction(grid, [3.0])
        self._assert_rows(monkeypatch, None, w, [np.array([0.5]), np.array([0.0])], 2.0, alpha, q)

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("n,depth", [(1, 4), (2, 2)])
    def test_sigma_underflow_inside(self, monkeypatch, rows, n, depth):
        # sigma = w^-100 underflows to 0 on one interior cube of level 1 and
        # everything below it, so those rows are skipped, every chunk of them
        # included, while their ancestors keep their ratios
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        w_vals = random_weight(grid, np.random.default_rng(6)).values.copy()
        w_vals[grid.cell_mask(cells(grid, 1)[1])] = 2000.0
        w = StepFunction(grid, w_vals)
        sigma = dual_weight(w, 1.01)
        rows_out, _ = self._assert_rows(monkeypatch, rows, w,
                                        [sigma.values, np.ones(grid.finest_count)], 1.01)
        skipped = [cube for cube, ratio in rows_out if ratio is None]
        assert skipped == [cube for cube in all_cubes(grid)
                           if grid.contains(cells(grid, 1)[1], cube)]

    @pytest.mark.parametrize("cell,message", [(math.inf, "finite"), (math.nan, "finite"),
                                              (-1.0, "nonnegative")])
    def test_rows_checked(self, cell, message):
        w = random_weight(unit_grid(3), np.random.default_rng(2))
        values = np.ones(8)
        values[5] = cell
        with pytest.raises(ValueError, match=f"cell values must be {message}"):
            harness._cube_ratios(harness._RatioKernel(w, 2.0, None),
                                 np.stack([np.ones(8), values]), 0.0)

    @staticmethod
    def _assert_scale_free(driver, scale):
        # the ratio has degree 0 in w, so a weight far from 1 measures what
        # the weight 1 does
        grid = unit_grid(3)
        report = driver(constant(grid, scale), 2.0)
        at_one = driver(constant(grid, 1.0), 2.0)
        assert report.measured_ratio == pytest.approx(at_one.measured_ratio, rel=1e-12)
        assert report.verdict

    @pytest.mark.parametrize("driver", [necessity_check, sufficiency_check], ids=_name)
    def test_overflowing_identity_route(self, driver):
        # sigma = 1e160, so (sigma chi_Q)^2 w = 1e320 * 1e-160 overflows unscaled
        self._assert_scale_free(driver, 1e-160)

    @pytest.mark.parametrize("driver", [necessity_check, sufficiency_check], ids=_name)
    def test_vanishing_norm(self, driver):
        # sigma = 1e-200, so sigma^2 w underflows to 0 on every cell unscaled
        self._assert_scale_free(driver, 1e200)


@st.composite
def pruning_cases(draw):
    """(w, p, alpha, q, g): a tabulated weight, 1-D to depth 8, 2-D to depth
    4 or 3-D to depth 2, with cells 2^U, U in [-300, 300] (and at p = 1.01 a
    sigma = w^(1 - p') that vanishes on the cubes of the large cells), or a
    power weight's tabulation; plain, or fractional at alpha = n/4; and a
    lognormal suite g."""
    p = draw(st.sampled_from([1.01, 1.5, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        pw, depth = draw(power_weights())
        w = pw.tabulate(depth)
    else:
        n = draw(st.sampled_from([1, 2, 3]))
        depth = draw(st.integers(0, {1: 8, 2: 4, 3: 2}[n]))
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        spread = draw(st.sampled_from([1.0, 30.0, 300.0]))
        w = StepFunction(grid, np.exp2(rng.uniform(-spread, spread, grid.finest_count)))
    n = w.grid.n
    g = harness._lognormal(rng, w.grid.finest_count)
    if draw(st.booleans()):
        return w, p, 0.0, None, g
    return w, p, n / 4.0, 1.0 / (1.0 / p - 0.25), g


def _pruned_and_full(w, p, alpha, q, g):
    """The (sigma chi_Q, chi_Q, g chi_Q) rows of a pruned sweep, the upper
    bounds it computed, in lattice order (nan where it computed none), and
    the rows of a full sweep; a sweep's error message in place of its
    rows."""
    kernel = harness._RatioKernel(w, p, q)
    sigma = dual_weight(w, p, "ap" if q is None else "apq").values
    suites = np.stack([sigma, np.ones_like(sigma), g])
    grid = w.grid
    firsts = np.cumsum([0] + [2 ** (level * grid.n) for level in range(grid.depth + 1)])
    bounds = np.full((len(suites), firsts[-1]), np.nan)
    real = cuberows.CubeRows.bounds

    def recording(self, suite, level, cubes, *args):
        out = real(self, suite, level, cubes, *args)
        bounds[suite, firsts[level] + cubes] = out
        return out

    def sweep(prune):
        try:
            return harness._cube_ratios(kernel, suites, alpha, prune=prune)
        except ValueError as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuberows.CubeRows, "bounds", recording)
        pruned = sweep(True)
    return pruned, bounds, sweep(False)


class TestWeakTypePruning:
    """Each later-suite row's certified upper bound is at least its ratio,
    and a pruned sweep differs from the full one only in later-suite rows,
    each -inf and below the maximum, so no maximum, witness or error
    moves."""

    @settings(max_examples=300)
    @given(pruning_cases())
    def test_bound_holds_and_pruning_keeps_the_maximum(self, case):
        try:
            pruned, bounds, full = _pruned_and_full(*case)
        except ValueError as exc:  # sigma = w^(1 - p') leaves the float range
            assert "overflows" in str(exc)
            return
        if isinstance(full, str):
            assert pruned == full
            return
        certified = ~np.isnan(bounds)
        assert np.all(bounds[certified] >= full[certified] * (1.0 - cuberows._SELECT_MARGIN))
        assert np.array_equal(pruned[0], full[0], equal_nan=True)
        skipped = pruned == -math.inf
        assert np.array_equal(pruned[~skipped], full[~skipped], equal_nan=True)
        assert np.all(certified[skipped])
        assert np.all(full[skipped] < np.nanmax(full))

    def test_halved_bound_is_caught(self, monkeypatch):
        # a mutation check: bounds at half their value prune chi_Q rows that
        # tie the maximum, where the first maximum is a chi_Q row, and the
        # oracle comparison fails
        real = cuberows.CubeRows.bounds
        monkeypatch.setattr(cuberows.CubeRows, "bounds",
                            lambda self, *args: 0.5 * real(self, *args))
        with pytest.raises(AssertionError):
            TestChunkedEngineOracle().test_ties_keep_first_maximum(1, 6)


@st.composite
def engine_cases(draw):
    """(w, p, alpha, q, g): a weight, 1-D to depth 10, 2-D to depth 5 or 3-D
    to depth 3, on roots of side 1, 3 or 0.7, constant (every row full of
    ties) or with cells 2^U, U uniform in [-s, s], s in {1, 30, 300}, or a
    power weight's tabulation; plain, or fractional at alpha = n/4; and a
    suite g, lognormal times 2^V, V uniform in [-t, t], t in {0, 500, 1000}
    (past what one scale can hold), that vanishes on a random set of
    cubes."""
    p = draw(st.sampled_from([1.01, 1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from(["spread", "constant", "power"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "power":
        pw, depth = draw(power_weights())
        w = pw.tabulate(depth)
    else:
        n = draw(st.sampled_from([1, 2, 3]))
        depth = draw(st.sampled_from(range({1: 10, 2: 5, 3: 3}[n], -1, -1)))
        grid = GridSpec(n, (0.0,) * n, draw(st.sampled_from([1.0, 3.0, 0.7])), depth)
        if kind == "constant":
            w = constant(grid, 2.0 ** draw(st.integers(-300, 300)))
        else:
            spread = draw(st.sampled_from([1.0, 30.0, 300.0]))
            w = StepFunction(grid, np.exp2(rng.uniform(-spread, spread, grid.finest_count)))
    grid = w.grid
    level = draw(st.integers(0, grid.depth))
    kept = rng.random(2 ** (level * grid.n)) < 0.7
    spread = draw(st.sampled_from([0.0, 500.0, 1000.0]))
    g = (harness._lognormal(rng, grid.finest_count) * kept[grid.ancestor_index(level)]
         * np.exp2(rng.uniform(-spread, spread, grid.finest_count)))
    if draw(st.booleans()):
        return w, p, 0.0, None, g
    return w, p, grid.n / 4.0, 1.0 / (1.0 / p - 0.25), g


# the errors a row's checks name (``_RatioKernel.finish``)
ROW_ERRORS = (harness._OVERFLOW, harness._TOO_WIDE, harness._DEGENERATE)


def _engine_and_dense(w, p, alpha, q, g):
    """The sigma chi_Q, chi_Q and g chi_Q rows of the engine and of the
    dense oracle, unpruned; a sweep's row error in place of its rows.  Any
    other error propagates, so that a crash is never read as a mismatch."""
    sigma = dual_weight(w, p, "ap" if q is None else "apq").values
    kernel = harness._RatioKernel(w, p, q)
    suites = np.stack([sigma, np.ones_like(sigma), g])
    out = []
    for sweep in (harness._cube_ratios, dense_cube_ratios):
        try:
            out.append(sweep(kernel, suites, alpha))
        except ValueError as exc:
            if str(exc) not in ROW_ERRORS:
                raise
            out.append(str(exc))
    return out


def _assert_engine_matches(case):
    try:
        engine, dense = _engine_and_dense(*case)
    except ValueError as exc:  # sigma = w^(1 - p') leaves the float range
        if "overflows" not in str(exc):
            raise
        return
    if isinstance(dense, str):
        assert engine == dense
    else:
        assert isinstance(engine, np.ndarray) and engine.tobytes() == dense.tobytes()


# fixed cases for the mutation checks: a constant weight, whose rows are all
# ties, and spread weights in 1-D and 2-D; each mutant below fails at least
# two of them (the doubled L_Q the last three, the halved nodes all five,
# the 4-cell nodes the two 1-D spread weights)
MUTATION_CASES = [
    (constant(unit_grid(8), 2.0), 2.0, 0.0, None, np.ones(256)),
    (random_weight(unit_grid(8), np.random.default_rng(1)), 1.5, 0.25, 1.0 / (1.0 / 1.5 - 0.25),
     harness._lognormal(np.random.default_rng(2), 256)),
    (random_weight(unit_grid(4, n=2), np.random.default_rng(3)), 3.0, 0.0, None,
     harness._lognormal(np.random.default_rng(4), 256)),
    (random_weight(unit_grid(8), np.random.default_rng(5)), 2.0, 0.0, None,
     harness._lognormal(np.random.default_rng(105), 256)),
    (random_weight(unit_grid(5, n=2), np.random.default_rng(6)), 3.0, 0.0, None,
     harness._lognormal(np.random.default_rng(106), 1024)),
]


class TestSortedRunEngine:
    """The cube rows from sorted runs equal the dense rows to the last bit:
    every ratio, every nan row where g vanishes on Q, and the message of the
    first failing row in the dense order."""

    @settings(max_examples=250)
    @given(engine_cases())
    def test_matches_dense_rows(self, case):
        _assert_engine_matches(case)

    def test_fixed_cases(self):
        for case in MUTATION_CASES:
            _assert_engine_matches(case)

    @staticmethod
    def _assert_caught():
        # a mutant is caught where its rows or its row error differ from the
        # dense oracle's on at least two cases; any other error is a crash,
        # which is not a catch, so a mutant or a wrapper that only crashes
        # fails here
        caught = 0
        for case in MUTATION_CASES:
            try:
                _assert_engine_matches(case)
            except AssertionError:
                caught += 1
            except Exception:  # a crash
                pass
        assert caught >= 2

    def test_doubled_lower_bound_is_caught(self, monkeypatch):
        # a mutation check: with L_Q doubled, cells that attain a row's norm
        # fall below the selection threshold
        real = cuberows.CubeRows._lower_bounds

        def doubled(self, *args):
            h, low = real(self, *args)
            return h, 2.0 * low
        monkeypatch.setattr(cuberows.CubeRows, "_lower_bounds", doubled)
        self._assert_caught()

    def test_halved_norm_node_is_caught(self, monkeypatch):
        # a mutation check: every norm node at half its size.  A 64-cell
        # slice of numpy's 128-cell leaf sums to the same bits (the leaf adds
        # eight partial sums, strided by 8), but a node above the leaf loses
        # half of its cube's cells
        init = cuberows.CubeRows.__init__

        def halved(self, *args):
            init(self, *args)
            self.nodes = [node // 2 for node in self.nodes]
        monkeypatch.setattr(cuberows.CubeRows, "__init__", halved)
        self._assert_caught()

    def test_short_norm_node_is_caught(self, monkeypatch):
        # a mutation check: 4-cell nodes, which numpy sums in sequence
        # rather than in the leaf's eight interleaved partial sums
        monkeypatch.setattr(cuberows, "_PAIRWISE_LEAF", 4)
        self._assert_caught()


class TestLatticeOrder:
    """The suites' ratio arrays are in lattice order, and each verify side
    takes the first maximum of them, never a nan row."""

    @pytest.mark.parametrize("n,depth", [(1, 0), (1, 5), (2, 0), (2, 3), (3, 0), (3, 2)])
    def test_position_to_cube(self, n, depth):
        grid = GridSpec(n, (0.0,) * n, 1.0, depth)
        cubes = list(all_cubes(grid))
        assert [harness._lattice_cube(grid, pos) for pos in range(len(cubes))] == cubes

    def test_no_cube_objects(self, monkeypatch):
        # the sweep works on lattice positions alone
        grid = GridSpec(2, (0.0, 0.0), 1.0, 3)
        w = random_weight(grid, np.random.default_rng(1))
        kernel = harness._RatioKernel(w, 2.0, None)

        def no_cube(*args):
            raise AssertionError("the sweep built a DyadicCube")
        with monkeypatch.context() as patch:
            patch.setattr(grid_module, "DyadicCube", no_cube)
            ratios = harness._cube_ratios(kernel, np.stack([w.values, np.ones(64)]), 0.0)
        assert ratios.shape == (2, 1 + 4 + 16 + 64)

        # the reports build no cube per row: past the star scan's candidates,
        # only the witnesses (necessity's cube, and sufficiency's function)
        built = []
        init = grid_module.DyadicCube.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(grid_module.DyadicCube, "__init__", counted)
        weights.star_constant(w, 2.0)
        scan, built[:] = len(built), []
        report = necessity_check(w, 2.0)
        assert len(built) <= scan + 1
        assert [(row["level"], row["index"]) for row in report.per_cube] == [
            (cube.level, list(cube.index)) for cube in all_cubes(grid)]
        built.clear()
        verify_weight(w, 2.0, n_random=8)
        assert len(built) <= scan + 2

    # chi_Q and sigma chi_Q ratios of the three cubes of a 1-D depth-1 grid
    # (the root, then [0, 1/2) and [1/2, 1)), with a nan sigma chi_Q row and
    # a +inf ratio beside the maximum
    @pytest.mark.parametrize("sigma,chi,measured,label", [
        ([2.0, math.nan, 1.0], [0.5, 0.25, 0.25], 2.0, "sigma_chi[0,(0,)]"),
        ([1.0, math.nan, 3.0], [0.5, 0.25, 3.0], 3.0, "chi[1,(1,)]"),
        ([math.nan, math.inf, 1.0], [0.5, 0.25, 0.25], math.inf, "sigma_chi[1,(0,)]"),
        ([1.0, 2.0, math.inf], [0.5, math.inf, 0.25], math.inf, "chi[1,(0,)]"),
    ])
    def test_sufficiency_witness(self, monkeypatch, sigma, chi, measured, label):
        monkeypatch.setattr(harness, "_cube_suites",
                            lambda *args, **kwargs: (np.array(sigma), np.array(chi)))
        report = sufficiency_check(constant(unit_grid(1), 1.0), 2.0, n_random=0)
        assert (report.measured_ratio, report.witnesses["function"]) == (measured, label)

    def test_necessity_witness(self, monkeypatch):
        w = constant(unit_grid(1), 1.0)
        rows = np.array([1.0, math.inf, math.inf])
        monkeypatch.setattr(harness, "_cube_suites", lambda *args, **kwargs: (rows, rows))
        out = verify_weight(w, 2.0, n_random=0)
        assert out["necessity"]["measured_ratio"] == math.inf
        assert out["necessity"]["witnesses"]["cube"] == {"level": 1, "index": [0]}
        assert [row["ratio"] for row in out["necessity"]["per_cube"]] == rows.tolist()
        assert out["sufficiency"]["witnesses"]["function"] == "chi[1,(0,)]"
        rows[2] = math.nan
        with pytest.raises(ValueError, match="degenerate input"):
            verify_weight(w, 2.0, n_random=0)


def _kernel_reference(w, mf, den_sums, p, q):
    # one lorentz.weak_scan per row, as a single function's ratio, with the
    # power-identity route as the oracle of the numerator
    cm = w.grid.cell_measure
    out = []
    for row, den_sum in zip(mf, den_sums.tolist()):
        if q is None:
            num = float(weak_scan(w.values ** (1.0 / p) * row, cm, p))
            cross = float(weak_scan(w.values * row ** float(p), cm)) ** (1.0 / p)
        else:
            num = float(weak_scan(w.values * row, cm, q))
            cross = float(weak_scan(w.values ** float(q) * row ** float(q), cm)) ** (1.0 / q)
        assert abs(num - cross) <= 1e-10 * max(num, cross)
        out.append(num / (den_sum * cm) ** (1.0 / p))
    return out


class TestRatioKernel:
    """The per-call kernel equals a weak_scan of each row to the last bit,
    and raises the error of the first failing row of a chunk."""

    GRID = unit_grid(6)

    @classmethod
    def _rows(cls, count, seed):
        # ties within and across rows, and zero cells
        rng = np.random.default_rng(seed)
        mf = rng.integers(0, 4, (count, cls.GRID.finest_count)).astype(float)
        mf[::3] *= harness._lognormal(rng, cls.GRID.finest_count)
        mf[:, 0] = 1.0  # no row vanishes
        return mf

    @pytest.mark.parametrize("rows", [1, 5, "full"])
    @pytest.mark.parametrize("p,q", [(2.0, None), (1.5, None), (2.0, 4.0), (3.0, 6.0)])
    def test_matches_weak_scan_per_row(self, rows, p, q):
        w = random_weight(self.GRID, np.random.default_rng(8))
        count = harness._chunk_rows(self.GRID) if rows == "full" else rows
        mf = self._rows(count, count)
        before = mf.copy()
        kernel = harness._RatioKernel(w, p, q)
        den_sums = kernel.norm_cells(mf).sum(axis=-1)
        assert kernel(mf, den_sums) == _kernel_reference(w, mf, den_sums, p, q)
        assert np.array_equal(mf, before)

    @staticmethod
    def _failing_chunk(kinds):
        # one row per kind, "+" joining the faults of one row; "flat" is
        # M f = 1e-160 on w = 1, whose square is subnormal; "zero" is f = 0;
        # "inf_mf" an overflowed cell of M f and "inf_norm" an overflowed
        # norm sum
        grid = unit_grid(3)
        mf = np.ones((len(kinds), 8))
        den_sums = np.ones(len(kinds))
        for i, kind in enumerate(kinds):
            if kind.startswith("flat"):
                mf[i] = 1e-160
            if kind.startswith("zero+"):
                mf[i] = 0.0
            if "inf_mf" in kind:
                mf[i, 5] = math.inf
            if "inf_norm" in kind:
                den_sums[i] = math.inf
            if "zero_norm" in kind:
                den_sums[i] = 0.0
        return harness._RatioKernel(constant(grid, 1.0), 2.0, None), mf, den_sums

    # A zero norm with M f positive somewhere is an integrand that underflowed
    # (f != 0); with M f = 0 it is f = 0, the degenerate input.
    @pytest.mark.parametrize("kinds,error,message", [
        (("ok", "inf_mf", "zero_norm"), ValueError, "cell values must be finite"),
        (("ok", "zero_norm", "inf_mf"), ValueError, "too wide"),
        (("zero_norm", "flat"), ValueError, "too wide"),
        (("flat", "inf_norm", "zero_norm"), ValueError, "cell values must be finite"),
        # within a row: finite, then degenerate
        (("ok", "inf_mf+zero_norm"), ValueError, "cell values must be finite"),
        (("ok", "flat+zero_norm"), ValueError, "too wide"),
        (("ok", "flat+inf_norm"), ValueError, "cell values must be finite"),
        (("ok", "zero+zero_norm", "inf_mf"), ValueError, "degenerate input"),
        (("zero+zero_norm", "flat+zero_norm"), ValueError, "degenerate input"),
    ])
    def test_first_failing_row_raises(self, kinds, error, message):
        kernel, mf, den_sums = self._failing_chunk(kinds)
        with pytest.raises(error, match=message):
            kernel(mf, den_sums)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_cell_names_the_overflow(self, bad):
        # a row with an inf or nan numerator cell has a weak norm past the
        # float range, and finish names the overflow there, after the rows
        # before it
        kernel = harness._RatioKernel(constant(unit_grid(3), 1.0), 2.0, None)
        rows = np.array([[1.0] * 8, [0.0] * 4 + [1.0, 2.0, 3.0, bad]])
        nums = _sorted_scan(rows, kernel.counts)
        assert np.isfinite(nums[0]) and not np.isfinite(nums[1])
        out, error = kernel.finish(nums, np.ones(2), lambda i: True)
        assert (out, error) == ([nums[0] / 0.125 ** 0.5], harness._OVERFLOW)

    def test_underflowing_integrand_is_named(self):
        # w spans e^+-700, so w^p underflows to 0 on the cells where a sigma
        # chi_Q row lives: ||f|| > 0, yet its weighted integrand sums to 0
        grid = GridSpec(2, (0.0, 0.0), 1.0, 4)
        logs = np.random.default_rng(0).normal(0.0, 100.0, grid.finest_count)
        w = StepFunction(grid, np.exp(np.clip(logs, -700.0, 700.0)))
        with pytest.raises(ValueError, match="range is too wide for the float range"):
            verify_weight(w, 2.0, 0.5, 4.0, n_random=8)


DRIVERS = [necessity_check, sufficiency_check, verify_weight]


class TestCheckedResolution:
    """Each driver checks its call before any scan, and verify evaluates the
    sigma chi_Q rows once for both sides."""

    @staticmethod
    def _forbid_scan(monkeypatch):
        def star_constant(*args, **kwargs):
            raise AssertionError("the star class was scanned before the call was checked")
        monkeypatch.setattr(harness, "star_constant", star_constant)

    @pytest.mark.parametrize("driver", DRIVERS + [lemma_suite], ids=_name)
    def test_zero_cells(self, monkeypatch, driver):
        self._forbid_scan(monkeypatch)
        w = StepFunction(unit_grid(2), [1, 1, 0, 1])
        with pytest.raises(ValueError, match="zero cells"):
            driver(w, 2.0)

    @pytest.mark.parametrize("driver", DRIVERS, ids=_name)
    @pytest.mark.parametrize("w,alpha", [
        (StepFunction(unit_grid(3), np.linspace(1.0, 2.0, 8)), 0.9),
        (StepFunction(unit_grid(2, n=2), np.linspace(1.0, 2.0, 16)), 0.25),
        (PowerWeight(0.0, -0.5, 0.0, 1.0), 0.5),
    ], ids=["1d", "2d", "power"])
    def test_exponent_relation(self, monkeypatch, driver, w, alpha):
        # 1/p - 1/q = 1/4 at p = 2, q = 4, but alpha/n is not
        self._forbid_scan(monkeypatch)
        with pytest.raises(ValueError, match="exponent relation violated"):
            driver(w, 2.0, alpha, 4.0, depth=4)

    @pytest.mark.parametrize("driver", DRIVERS + [lemma_suite], ids=_name)
    @pytest.mark.parametrize("p,q", [(math.inf, None), (math.nan, None), (2.0, math.inf)],
                             ids=["p_inf", "p_nan", "q_inf"])
    def test_non_finite_exponents(self, monkeypatch, driver, p, q):
        # The exponents are checked inside the star class, so forbid the
        # weight scan itself rather than the star constant.
        def scan(*args, **kwargs):
            raise AssertionError("a weight class was scanned before its exponents were checked")
        monkeypatch.setattr(weights, "_scan", scan)
        w = StepFunction(unit_grid(3), np.linspace(1.0, 2.0, 8))
        # 1/2 - 1/inf = alpha/n holds, so only q = inf itself is wrong
        alpha = {} if driver is lemma_suite or q is None else {"alpha": 0.5}
        with pytest.raises(ValueError, match="< inf"):
            driver(w, p, q=q, **alpha)

    @pytest.mark.parametrize("driver", [sufficiency_check, verify_weight, lemma_suite],
                             ids=_name)
    def test_negative_n_random(self, monkeypatch, driver):
        self._forbid_scan(monkeypatch)
        w = StepFunction(unit_grid(3), np.linspace(1.0, 2.0, 8))
        with pytest.raises(ValueError, match="n_random must be >= 0"):
            driver(w, 2.0, n_random=-1)

    @pytest.mark.parametrize("driver", [sufficiency_check, verify_weight, lemma_suite],
                             ids=_name)
    @pytest.mark.parametrize("seed", [-1, 2.5, None])
    def test_seed_not_a_non_negative_integer(self, monkeypatch, driver, seed):
        # checked even when no random function is drawn
        self._forbid_scan(monkeypatch)
        w = StepFunction(unit_grid(3), np.linspace(1.0, 2.0, 8))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            driver(w, 2.0, seed=seed, n_random=0)

    @pytest.mark.parametrize("driver", [sufficiency_check, verify_weight], ids=_name)
    @pytest.mark.parametrize("c_desk", [math.nan, -1.0, 0.0, math.inf])
    def test_c_desk_out_of_range(self, monkeypatch, driver, c_desk):
        # nan or a nonpositive allowance would fail every verdict, and an
        # infinite one would pass every verdict.
        self._forbid_scan(monkeypatch)
        w = StepFunction(unit_grid(3), np.linspace(1.0, 2.0, 8))
        with pytest.raises(ValueError, match="c_desk must be positive and finite"):
            driver(w, 2.0, c_desk=c_desk)

    @pytest.mark.parametrize("driver", [sufficiency_check, lemma_suite], ids=_name)
    def test_zero_star_constant(self, driver):
        # sigma = w^-2 = 1e-400 underflows to 0, and the star constant with it
        w = constant(unit_grid(3), 1e200)
        assert harness.star_constant(w, 1.5).value == 0.0
        with pytest.raises(ValueError, match="star constant is 0"):
            driver(w, 1.5)

    @staticmethod
    def _count_rows(monkeypatch, owner, name):
        # the rows of every call of owner.name, whose first argument after
        # the kernel has one entry per row
        evaluated = []
        wrapped = getattr(owner, name)

        def counting(*args):
            evaluated.append(args[1].shape[0])
            return wrapped(*args)

        monkeypatch.setattr(owner, name, counting)
        return evaluated

    @staticmethod
    def _suite_rows(monkeypatch):
        # the (sigma chi_Q, chi_Q) ratio arrays of every _cube_suites call
        suites = []
        wrapped = harness._cube_suites

        def recording(*args, **kwargs):
            suites.append(wrapped(*args, **kwargs))
            return suites[-1]

        monkeypatch.setattr(harness, "_cube_suites", recording)
        return suites

    @classmethod
    def _assert_rows_once(cls, rows, suites, n_random):
        # every sigma chi_Q and random row reaches the shared ratio tail,
        # _RatioKernel.finish, once, and each chi_Q row at most once: the
        # chi_Q rows left out read -inf; returns the chi_Q rows evaluated
        (sigma_rows, chi_rows), = suites
        assert np.isfinite(sigma_rows).all()
        evaluated = int(np.sum(chi_rows != -math.inf))
        assert np.all(np.isfinite(chi_rows) | (chi_rows == -math.inf))
        assert sum(rows) == len(sigma_rows) + n_random + evaluated
        return evaluated

    def test_verify_row_count(self, monkeypatch):
        evaluated = self._count_rows(monkeypatch, harness._RatioKernel, "finish")
        suites = self._suite_rows(monkeypatch)
        w = random_weight(unit_grid(6), np.random.default_rng(3))
        verify_weight(w, 2.0, n_random=10)
        assert self._assert_rows_once(evaluated, suites, 10) <= 2 ** 7 - 1

    @pytest.mark.parametrize("driver", DRIVERS, ids=_name)
    def test_one_kernel_per_resolution(self, monkeypatch, driver):
        # the cube rows and the random rows share the resolution's kernel
        built = []
        init = harness._RatioKernel.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(harness._RatioKernel, "__init__", counting)
        driver(random_weight(unit_grid(5), np.random.default_rng(3)), 2.0)
        assert len(built) == 1

    def test_one_sort_per_row(self, monkeypatch):
        # 1-D depth 10 (C = 2,047 cubes): each row is evaluated once, fewer
        # than 10% of the chi_Q rows are evaluated, the others being
        # certified below the maximum, and the cube rows sort fewer than
        # 10% of the C N cells their dense rows hold: each level's on-Q runs
        # once per suite, and then only the cells that can attain a norm
        evaluated = self._count_rows(monkeypatch, harness._RatioKernel, "finish")
        suites = self._suite_rows(monkeypatch)
        sorted_cells = []
        scan, sorted_scan = cuberows.CubeRows._scan, cuberows._sorted_scan

        def cube_scan(self, level, chunk, C, run):
            sorted_cells.append(run.size)  # the on-Q runs, sorted whole
            return scan(self, level, chunk, C, run)

        def selected_scan(vals, counts):
            sorted_cells.append(vals.size)  # the cells selected, padded per row
            return sorted_scan(vals, counts)

        monkeypatch.setattr(cuberows.CubeRows, "_scan", cube_scan)
        monkeypatch.setattr(cuberows, "_sorted_scan", selected_scan)
        grid = unit_grid(10)
        w = random_weight(grid, np.random.default_rng(3))
        verify_weight(w, 2.0)
        assert self._assert_rows_once(evaluated, suites, 200) < 0.1 * 2047
        assert 0 < sum(sorted_cells) < 0.1 * 2047 * grid.finest_count

    def test_inverse_x_prunes_chi_rows(self, monkeypatch):
        # |x|^-1 at depth 10, as in the benchmark's verify: the weak-type
        # bounds leave at most 10 of the 2,047 chi_Q rows to evaluate
        evaluated = self._count_rows(monkeypatch, harness._RatioKernel, "finish")
        suites = self._suite_rows(monkeypatch)
        verify_weight(PowerWeight(0.0, -1.0, 0.0, 1.0), 2.0, n_random=10, depth=10)
        assert self._assert_rows_once(evaluated, suites, 10) <= 10

    def test_no_chi_rows_without_a_bound(self, monkeypatch):
        evaluated = self._count_rows(monkeypatch, harness._RatioKernel, "finish")
        # a vacuous bound: only the sigma chi_Q rows are evaluated, those of
        # the 14 cubes off the spike cell, where sigma = w^-2 underflows to 0
        spike = StepFunction(unit_grid(3), [1.0] * 7 + [1e170])
        assert sufficiency_check(spike, 1.5, n_random=5).theoretical_bound == math.inf
        assert sum(evaluated) == 14
        # a star constant of 0: sigma = 0 everywhere, so no row at all
        evaluated.clear()
        with pytest.raises(ValueError, match="star constant is 0"):
            sufficiency_check(constant(unit_grid(3), 1e200), 1.5)
        assert sum(evaluated) == 0

    @pytest.mark.parametrize("alpha,q", [(0.0, None), (0.25, 4.0)], ids=["plain", "fractional"])
    @pytest.mark.parametrize("w,depth", [
        (random_weight(unit_grid(5), np.random.default_rng(4)), None),
        (PowerWeight(0.0, -0.5, 0.0, 1.0), 5),
    ], ids=["tabulated", "power"])
    def test_verify_matches_the_two_checks(self, w, depth, alpha, q):
        out = verify_weight(w, 2.0, alpha, q, seed=4, n_random=20, depth=depth)
        assert out["necessity"] == necessity_check(w, 2.0, alpha, q, depth=depth).to_dict()
        assert out["sufficiency"] == sufficiency_check(
            w, 2.0, alpha, q, seed=4, n_random=20, depth=depth).to_dict()

    def test_sigma_underflow(self):
        # sigma = w^(1 - p') = w^-100 underflows to 0 where w = 2000, so the
        # sigma chi_Q row of that cell is all zero: sufficiency skips it, and
        # necessity cannot take its ratio.
        w = StepFunction(unit_grid(1), [1.0, 2000.0])
        sigma = dual_weight(w, 1.01)
        assert sigma.values.tolist() == [1.0, 0.0]
        rows, = harness._cube_ratios(harness._RatioKernel(w, 1.01, None), sigma.values[None], 0.0)
        assert np.isnan(rows).tolist() == [False, False, True]
        suf = sufficiency_check(w, 1.01, seed=2, n_random=5)
        best, label = _first_maximum(_oracle_suite_ratios(w, sigma, 1.01, 0.0, None, 2, 5))
        assert (suf.measured_ratio, suf.witnesses["function"]) == (best, label)
        with pytest.raises(ValueError, match="degenerate input"):
            necessity_check(w, 1.01)
        with pytest.raises(ValueError, match="degenerate input"):
            verify_weight(w, 1.01, n_random=5)


# (p, alpha, q) of the plain and fractional ratios
EXPONENTS = [(1.5, 0.0, None), (2.0, 0.0, None), (3.0, 0.0, None), (2.0, 0.25, 4.0)]


def _scaled(f, exponent):
    return StepFunction(f.grid, f.values * 10.0 ** exponent)


class TestScaleInvariance:
    """The ratio has degree 0 in w and in f, and so has each check's measured
    maximum: rescaling w or f by 10^k, |k| <= 300, moves no ratio by more
    than 1e-12 relative."""

    GRID = unit_grid(4)

    @given(seed=st.integers(0, 2 ** 16), lam=st.integers(-300, 300), mu=st.integers(-300, 300),
           kind=st.sampled_from(["lognormal", "spiky"]), exponents=st.sampled_from(EXPONENTS))
    @settings(max_examples=60)
    def test_multiplier_ratio(self, seed, lam, mu, kind, exponents):
        p, alpha, q = exponents
        rng = np.random.default_rng(seed)
        f, w = random_step(self.GRID, rng, kind), random_weight(self.GRID, rng)
        ratio = multiplier_ratio(f, w, p, alpha, q)
        assert multiplier_ratio(f, _scaled(w, lam), p, alpha, q) == pytest.approx(ratio, rel=1e-12)
        assert multiplier_ratio(_scaled(f, mu), w, p, alpha, q) == pytest.approx(ratio, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 16), scale=st.floats(-1.0, 1.0),
           exponents=st.sampled_from(EXPONENTS))
    @settings(max_examples=30)
    def test_checks(self, seed, scale, exponents):
        # sigma scales as lambda^(1 - p') (fractional: lambda^-p'), so
        # |log10 lambda| <= 300 / max(1, p' - 1) keeps it in range (fractional:
        # 300 / max(q, p'), as the star scan raises w to the q)
        p, alpha, q = exponents
        pc = p / (p - 1.0)
        lam = round(scale * 300 / (max(1.0, pc - 1.0) if q is None else max(q, pc)))
        w = random_weight(self.GRID, np.random.default_rng(seed))
        for check, kwargs in ((necessity_check, {}), (sufficiency_check, {"n_random": 5})):
            report = check(w, p, alpha, q, **kwargs)
            scaled = check(_scaled(w, lam), p, alpha, q, **kwargs)
            assert scaled.measured_ratio == pytest.approx(report.measured_ratio, rel=1e-12)


def _reflected(w, axis):
    """w with its cells reversed along one axis of the lattice."""
    cells = w.values.reshape((2 ** w.grid.depth,) * w.grid.n)
    return StepFunction(w.grid, np.flip(cells, axis).ravel())


class TestReflectionInvariance:
    """A reflection along one axis maps the dyadic lattice onto itself, so
    it moves no weight constant and no check's measured maximum.  Only the
    order in which cells are summed changes, so each value may move by a
    few ulps: the budget is REFLECT_ULPS ulps of the larger value, where
    150 seeded cases (1-D depth <= 6, 2-D depth <= 3) moved none by more
    than 3."""

    REFLECT_ULPS = 32

    @given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([1, 2]), depth=st.integers(1, 6),
           p=st.sampled_from([1.5, 2.0, 3.0]), spread=st.floats(0.2, 2.0))
    @settings(max_examples=40)
    def test_constants_and_checks(self, seed, n, depth, p, spread):
        depth = min(depth, 6 // n)
        w = random_weight(unit_grid(depth, n), np.random.default_rng(seed), log_spread=spread)
        alpha = n / 4.0  # 1/p - 1/q = alpha/n = 1/4
        q = 1.0 / (1.0 / p - 0.25)
        values = [
            lambda x: ap_constant(x, p).value,
            lambda x: a1_constant(x).value,
            lambda x: apq_constant(x, p, q).value,
            lambda x: a1q_constant(x, q).value,
            lambda x: rh_constant(x, 2.0).value,
            lambda x: ap_star_constant(x, p).value,
            lambda x: apq_star_constant(x, p, q).value,
            lambda x: necessity_check(x, p).measured_ratio,
            lambda x: necessity_check(x, p, alpha, q).measured_ratio,
            # no random rows: they are drawn unreflected
            lambda x: sufficiency_check(x, p, n_random=0).measured_ratio,
            lambda x: sufficiency_check(x, p, alpha, q, n_random=0).measured_ratio,
        ]
        for axis in range(n):
            mirror = _reflected(w, axis)
            for value in values:
                a, b = value(w), value(mirror)
                assert abs(a - b) <= self.REFLECT_ULPS * math.ulp(max(a, b)), (a, b)


class TestChebyshev:
    def test_trivial(self):
        grid = unit_grid(2)
        one = constant(grid, 1.0)
        assert chebyshev_check(one, one, 2.0)

    def test_spike_values(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [4, 0, 0, 0])
        w = constant(grid, 1.0)
        mf = dyadic_maximal(f)
        weak = weak_norm(w * mf, 2.0)
        strong = (float((mf.values ** 2).sum()) / 4) ** 0.5
        assert weak == pytest.approx(2.0)
        assert strong == pytest.approx(math.sqrt(22 / 4))
        assert chebyshev_check(f, w, 2.0)

    def test_seeded_sweep(self, rng):
        grid = unit_grid(5)
        for _ in range(60):
            f = random_step(grid, rng)
            w = random_weight(grid, rng)
            p = float(rng.choice([1.5, 2.0, 3.0]))
            assert chebyshev_check(f, w, p)


class TestSufficiency:
    def test_trivial_weight_normalized_below_one(self):
        grid = unit_grid(4)
        w = constant(grid, 1.0)
        report = sufficiency_check(w, 2.0, seed=3, n_random=50)
        assert report.verdict
        assert report.theoretical_bound == pytest.approx(1.0, abs=1e-12)
        assert report.normalized <= 1.0 + 1e-9

    def test_quarters_weight(self):
        w = StepFunction(unit_grid(2), [2, 2, 1, 1])
        report = sufficiency_check(w, 2.0, seed=3, n_random=50)
        assert report.verdict
        assert report.normalized <= 8.0

    def test_fractional(self):
        w = StepFunction(unit_grid(4), [1.0] * 8 + [2.0] * 8)
        report = sufficiency_check(w, 2.0, alpha=0.25, q=4.0, seed=3, n_random=50)
        assert report.verdict

    def test_power_mode_analytic_constants(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        report = sufficiency_check(pw, 2.0, seed=3, n_random=30, depth=5)
        assert math.isfinite(report.normalized)
        assert report.context["mode"] == "power"

    def test_infinite_bound_fails_with_diagnostic(self):
        # |x|^(-1.5) has infinite weak-L1 mass at the origin, so the star
        # constant and the bound blow up; the report must fail loudly
        pw = PowerWeight(0.0, -1.5, 0.0, 1.0)
        report = sufficiency_check(pw, 2.0, seed=1, n_random=5, depth=4)
        assert not report.verdict
        assert report.theoretical_bound == math.inf
        assert "diagnostic" in report.context

    @pytest.mark.parametrize("spike,p,why", [
        # [sigma]_RH = star^2 overflows; sigma = w^-2 underflows to 0 on the
        # spike, whose sigma chi_Q rows are skipped
        (1e170, 1.5, "sigma-RH constant overflows"),
    ])
    def test_overflowing_bound_is_vacuous(self, spike, p, why):
        w = StepFunction(unit_grid(3), [1.0] * 7 + [spike])
        report = sufficiency_check(w, p, n_random=5)
        assert not report.verdict
        assert report.theoretical_bound == math.inf
        assert math.isfinite(report.context["star_constant"])
        assert report.context["diagnostic"] == f"{why}; bound is vacuous"

    def test_overflowing_product_bound(self):
        # star ~ 7.9e248 and [sigma]_RH ~ 1.7e62 are finite and their product
        # is not, but the bound, its 1/5 power, is in range
        w = StepFunction(unit_grid(3), [1.0] * 7 + [1e250])
        report = sufficiency_check(w, 5.0, n_random=5)
        star, rh = report.context["star_constant"], report.context["sigma_rh"]
        assert star * rh == math.inf
        assert report.theoretical_bound == star ** 0.2 * rh ** 0.2
        assert report.theoretical_bound == pytest.approx(1.677e62, rel=1e-3)
        assert "diagnostic" not in report.context
        assert report.verdict
        scaled = sufficiency_check(StepFunction(unit_grid(3), [1e-250] * 7 + [1.0]), 5.0,
                                   n_random=5)
        assert report.measured_ratio == pytest.approx(scaled.measured_ratio, rel=1e-12)

    def test_bound_overflows_is_vacuous(self, monkeypatch):
        # a finite pair whose bound itself passes the float range:
        # (star * 1e300)^(2/3) > 1e333 at p = 1.5
        monkeypatch.setattr(harness, "sigma_rh", lambda star: weights.SigmaRH(16.0, 1e300))
        w = StepFunction(unit_grid(3), [1.0] * 7 + [1e200])
        report = sufficiency_check(w, 1.5, n_random=5)
        assert report.context["star_constant"] > 1e170
        assert report.theoretical_bound == math.inf
        assert report.context["diagnostic"] == "bound overflows; bound is vacuous"
        assert not report.verdict

    def test_verify_sigma_rh_overflow_is_vacuous(self, monkeypatch):
        # on the weights tried, [sigma]_RH overflows only where sigma
        # underflows and stops the necessity side, so the pair is replaced
        monkeypatch.setattr(harness, "sigma_rh",
                            lambda star: weights.SigmaRH(16.0, math.inf))
        w = random_weight(unit_grid(4), np.random.default_rng(5))
        out = verify_weight(w, 1.5, n_random=5)
        assert out["necessity"] == necessity_check(w, 1.5).to_dict()
        suf = out["sufficiency"]
        assert suf["context"]["diagnostic"] == "sigma-RH constant overflows; bound is vacuous"
        assert suf["theoretical_bound"] == math.inf
        assert not out["verdict"]

    def test_reports_reproducible(self):
        w = StepFunction(unit_grid(3), np.linspace(0.5, 2.0, 8))
        a = sufficiency_check(w, 2.0, seed=11, n_random=40).to_dict()
        b = sufficiency_check(w, 2.0, seed=11, n_random=40).to_dict()
        assert a == b


class TestNecessity:
    def test_trivial_weight(self):
        grid = unit_grid(3)
        w = constant(grid, 1.0)
        report = necessity_check(w, 2.0)
        assert report.verdict
        assert report.measured_ratio >= 1.0 - 1e-9
        assert report.theoretical_bound == pytest.approx(1.0)

    def test_quarters_weight_witness(self):
        w = StepFunction(unit_grid(2), [2, 2, 1, 1])
        report = necessity_check(w, 2.0)
        assert report.verdict
        assert report.witnesses["cube"] is not None
        assert len(report.per_cube) == 7

    def test_seeded_plain_and_fractional(self, rng):
        grid = unit_grid(4)
        for _ in range(10):
            w = random_weight(grid, rng)
            rep = necessity_check(w, 2.0)
            assert rep.verdict, rep.to_dict()
            rep_f = necessity_check(w, 2.0, alpha=0.25, q=4.0)
            assert rep_f.verdict, rep_f.to_dict()

    def test_lower_bound_is_exact_not_slack(self, rng):
        # the witness cube's test function achieves the star constant
        grid = unit_grid(4)
        w = random_weight(grid, np.random.default_rng(5))
        star = ap_star_constant(w, 2.0)
        sigma = dual_weight(w, 2.0)
        f = StepFunction(grid, sigma.values * grid.cell_mask(star.witness))
        ratio = multiplier_ratio(f, w, 2.0)
        assert ratio >= star.value ** 0.5 - 1e-12

    def test_zero_cells_convention(self):
        w = StepFunction(unit_grid(2), [1, 1, 0, 1])
        with pytest.raises(ValueError, match="zero cells"):
            necessity_check(w, 2.0)


LEMMA_GRIDS = [(1, 0), (1, 1), (1, 3), (1, 6), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2)]
LEMMA_WEIGHTS = [
    *[(random_weight(unit_grid(depth, n), np.random.default_rng(10 * n + depth),
                     log_spread=1.2), None) for n, depth in LEMMA_GRIDS],
    (PowerWeight(0.0, -0.2, 0.0, 1.0), 5),  # in both star classes at every p
]
LEMMA_IDS = [f"{n}d_depth{depth}" for n, depth in LEMMA_GRIDS] + ["power"]


def old_unions(rng, k, count):
    """The keep masks of ``count`` unions of k cells, drawn one union at a
    time as ``oracles.random_cell_union`` draws them, and which of them
    are fallbacks (no cell kept before ``integers``)."""
    masks = np.zeros((count, k), dtype=bool)
    fallbacks = np.zeros(count, dtype=bool)
    for i, row in enumerate(masks):
        row[:] = rng.random(k) < rng.uniform(0.1, 0.9)
        if not row.any():
            row[rng.integers(k)] = fallbacks[i] = True
    return masks, fallbacks


class TestLemmaSuite:
    @pytest.mark.parametrize("q", [None, 4.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("w,depth", LEMMA_WEIGHTS, ids=LEMMA_IDS)
    def test_matches_containment_oracle(self, monkeypatch, w, depth, p, q):
        # the per-level subcube arrays check the same pairs as the scan over
        # every pair of cubes, the chunked unions are the per-union loop's,
        # and both reach the same worst ratio to the last bit
        sub_worst, sub_checks = lemma_subcube_scan(w, p, q, depth)
        for seed in (0, 3, 11):
            for n_random in (1, 5, 64):
                union_worst, union_checks = lemma_union_scan(w, p, q, seed, n_random, depth)
                report = lemma_suite(w, p, q, seed=seed, n_random=n_random, depth=depth)
                assert report.context["subset_checks"] == sub_checks + union_checks
                membership = [m["constant"] / m["bound"]
                              for m in report.context["membership"].values()]
                assert report.measured_ratio == max(*membership, sub_worst, union_worst)
        # the subcubes alone, where neither the membership part nor a random
        # union can hide them in the maximum
        monkeypatch.setattr(harness, "S_VALUES", ())
        report = lemma_suite(w, p, q, n_random=0, depth=depth)
        assert (report.measured_ratio, report.context["subset_checks"]) == (sub_worst, sub_checks)

    @pytest.mark.parametrize("overflowing", [False, True], ids=["in_range", "overflowing"])
    @pytest.mark.parametrize("n_random,rows", [(1, None), (5, None), (64, None),
                                               (1, 1), (5, 1), (5, 3), (64, 3)])
    @pytest.mark.parametrize("n,depth", [(1, 6), (2, 3), (3, 2)])
    def test_union_worst_matches_loop(self, monkeypatch, n, depth, n_random, rows, overflowing):
        # sigma(E) of the chunked unions, summed per kept count, against one
        # masked sum per union, on cell masses spread over many binary
        # orders, or near the top of the float range, where sums and
        # products overflow (rhs inf or nan); in chunks of one or three
        # unions, chunk edges fall on fallbacks.  The stream leaves out a
        # fallback's one cell, so both sides take every single cell's ratio,
        # as lemma_suite's subcube check does
        if rows is not None:
            monkeypatch.setattr(harness, "_union_rows", lambda k: rows)
        lat = unit_grid(depth, n)
        cell_mass = np.exp(np.random.default_rng(depth).normal(0.0, 0.5 if overflowing else 4.0,
                                                               lat.finest_count))
        if overflowing:  # the largest mass in [2^1022, 2^1023)
            cell_mass = np.ldexp(cell_mass, 1023 - np.frexp(cell_mass.max())[1])
        stream = harness._UnionStream(7)
        rng = np.random.default_rng(7)
        for level in range(depth):  # unions of one cell are never streamed
            cells = cube_blocks(np.arange(lat.finest_count), lat, level)
            k = cells.shape[1]

            def lhs_of(m):
                return (m / k) ** 3.0
            with np.errstate(over="ignore", invalid="ignore"):
                sigma_q = cell_mass[cells].sum(axis=1)
                cell_rhs = 1.7 * cell_mass[cells] / sigma_q[:, None]
                single = float(np.divide(lhs_of(1), cell_rhs, where=cell_rhs > 0,
                                         out=np.full(cell_rhs.shape, math.inf)).max())
                got = max(single, harness._union_worst(stream, cell_mass[cells], sigma_q, 1.7,
                                                       n_random, lhs_of))
                want = single
                for q_cells, sq in zip(cells, sigma_q.tolist()):
                    for _ in range(n_random):
                        e_cells = random_cell_union(rng, q_cells)
                        rhs = 1.7 * float(cell_mass[e_cells].sum()) / sq
                        want = max(want, lhs_of(e_cells.size) / rhs if rhs > 0 else math.inf)
            assert got == want

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["one", "three", "default"])
    def test_union_stream(self, monkeypatch, rows):
        # the chunked reader against a fresh Generator's random(k), uniform
        # and integers(k) called in the per-union loop's order, for many
        # seeds and power-of-two k >= 2: the same masks, except that a
        # fallback's row is empty, and the empty rows are the fallbacks.
        # The last k = 2 run follows unions without fallbacks, so the held
        # half carries across levels, and chunks of one or three unions put
        # fallbacks and split words on chunk edges.  NumPy does not promise
        # stable Generator streams across versions: if this fails,
        # lemma_suite's random unions no longer repeat the loop's.
        if rows is not None:
            monkeypatch.setattr(harness, "_union_rows", lambda k: rows)
        plan = [(2, 150), (4, 100), (8, 100), (256, 6), (2 ** 14, 2), (2, 50)]
        for seed in range(24):
            old, stream = np.random.default_rng(seed), harness._UnionStream(seed)
            for k, count in plan:
                keep = np.concatenate(list(stream.unions(k, count)))
                want, fallbacks = old_unions(old, k, count)
                want[fallbacks] = False
                assert (keep == want).all() and (keep.any(axis=1) != fallbacks).all(), \
                    f"union stream differs from numpy's Generator (seed {seed}, k {k})"

    def test_sigma_underflow(self):
        # sigma = w^-100 underflows to 0 on the cell where w = 2000, so that
        # cell's sigma(Q) vanishes; the star constant stays finite
        w = StepFunction(unit_grid(1), [1.0, 2000.0])
        with pytest.raises(ValueError, match="sigma underflows to 0 on a cell"):
            lemma_suite(w, 1.01, n_random=0)

    @pytest.mark.parametrize("values,p", [([1.0] * 7 + [1e170], 1.5), ([1.0, 1.5], 1.001)],
                             ids=["sigma_rh", "c"])
    def test_sigma_rh_overflow(self, values, p):
        # star^(p'-1) = star^2 resp. 4^(p'/p) = 4^1000 passes the float range
        w = StepFunction(unit_grid(3 if len(values) == 8 else 1), values)
        with pytest.raises(ValueError, match=r"sigma-RH pair .* overflows"):
            lemma_suite(w, p, n_random=0)

    def test_trivial_weight(self):
        w = constant(unit_grid(3), 1.0)
        report = lemma_suite(w, 2.0, seed=1, n_random=8)
        assert report.verdict
        assert report.measured_ratio < 0.9  # large slack

    def test_halves_exhaustive(self):
        w = StepFunction(unit_grid(1), [4, 1])
        report = lemma_suite(w, 2.0, seed=1)
        assert report.verdict

    def test_seeded_weights_no_violation(self, rng):
        grid = unit_grid(5)
        for _ in range(6):
            w = random_weight(grid, rng)
            for p in (1.5, 2.0, 3.0):
                report = lemma_suite(w, p, seed=13, n_random=16)
                assert report.verdict, report.to_dict()

    def test_fractional_constants(self, rng):
        grid = unit_grid(4)
        w = random_weight(grid, rng)
        report = lemma_suite(w, 2.0, q=4.0, seed=13, n_random=16)
        assert report.verdict
        assert report.context["c"] == pytest.approx(2.0)  # 4^{p'/q} = 2

    def test_power_weight_membership(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        report = lemma_suite(pw, 2.0, seed=2, n_random=8, depth=5)
        assert report.verdict
        # w^{1/2} = |x|^{-1/2} really is in A_2, with the lemma's bound
        root = ap_constant(pw ** 0.5, 2.0, depth=5).value
        star = ap_star_constant(pw, 2.0, depth=5).value
        assert root <= 2.0 * star ** 0.5 + 1e-12


class TestSandwich:
    def test_two_sided(self, rng):
        grid = unit_grid(5)
        for _ in range(4):
            w = random_weight(grid, rng)
            for p in (1.5, 2.0, 3.0):
                star = ap_star_constant(w, p).value
                suf = sufficiency_check(w, p, seed=21, n_random=60)
                assert suf.measured_ratio >= star ** (1 / p) - 1e-9
                assert suf.verdict, suf.to_dict()

    def test_verify_weight_bundle(self):
        w = StepFunction(unit_grid(3), np.linspace(0.5, 2.0, 8))
        out = verify_weight(w, 2.0, seed=4, n_random=40)
        assert out["verdict"]
        assert out["necessity"]["verdict"] and out["sufficiency"]["verdict"]


class TestPowerDepthStability:
    def test_star_stable_ap_grows(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        stars, aps = [], []
        for depth in (6, 8, 10):
            tab = pw.tabulate(depth)
            stars.append(ap_star_constant(tab, 2.0).value)
            aps.append(ap_constant(tab, 2.0).value)
        spread = max(stars) / min(stars) - 1.0
        assert spread < 0.05
        assert aps[-1] / aps[0] >= 1.2
        assert aps == sorted(aps)
