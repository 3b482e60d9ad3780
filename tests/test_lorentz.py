import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from weakmax import (
    Q_INF,
    DyadicCube,
    StepFunction,
    lorentz_norm,
    weak_norm,
)
from weakmax.lorentz import weak_scan

from conftest import step_functions, unit_grid
from oracles import all_cubes, lorentz_holder_check, power_identity_check


def oracle_distribution(f):
    """d_f(lam) from the raw definition, python counting only."""
    cm = f.grid.cell_measure

    def d(lam):
        return sum(1 for v in f.values if v > lam) * cm

    return d


def oracle_lorentz_by_quadrature(f, p, q):
    """p^(1/q) (int_0^inf d(lam)^{q/p} lam^{q-1} dlam)^{1/q} on a split grid."""
    d = oracle_distribution(f)
    breaks = sorted(set(f.values.tolist()) | {0.0})
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        total += quad(lambda lam: d(lam) ** (q / p) * lam ** (q - 1), lo, hi,
                      limit=200)[0]
    return p ** (1.0 / q) * total ** (1.0 / q)


def oracle_weak(f, p):
    """sup over distinct values v of v * |{f >= v}|^{1/p}, python loops."""
    cm = f.grid.cell_measure
    best = 0.0
    for v in set(f.values.tolist()):
        if v > 0:
            best = max(best, v * (sum(1 for u in f.values if u >= v) * cm) ** (1 / p))
    return best


class TestWeakNorm:
    def test_indicator_half(self):
        grid = unit_grid(1)
        f = StepFunction(grid, [1, 0])
        assert weak_norm(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_spike_p2(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        assert weak_norm(f, 2) == pytest.approx(oracle_weak(f, 2)) == 2.0

    def test_spike_p1(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        assert weak_norm(f, 1) == pytest.approx(oracle_weak(f, 1)) == 1.0

    @given(step_functions(max_depth=3), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    def test_matches_value_scan_oracle(self, f, p):
        assert weak_norm(f, p) == pytest.approx(oracle_weak(f, p), rel=1e-13, abs=1e-300)

    @given(step_functions(max_depth=3), st.floats(0.01, 100.0))
    def test_scaling(self, f, c):
        lhs = weak_norm(f * c, 2)
        assert lhs == pytest.approx(c * weak_norm(f, 2), rel=1e-12, abs=1e-300)

    def test_restriction_monotone(self, rng):
        grid = unit_grid(4)
        f = StepFunction(grid, rng.uniform(0, 5, grid.finest_count))
        full = weak_norm(f, 1.5)
        for cube in all_cubes(grid):
            assert weak_norm(f, 1.5, cube) <= full * (1 + 1e-15)

    def test_bad_exponent(self):
        f = StepFunction(unit_grid(1), [1, 1])
        with pytest.raises(ValueError):
            weak_norm(f, 0.0)


class TestWeakScan:
    @staticmethod
    def _descending_loop(row, cell_measure, p):
        # the values in decreasing order against the ascending rank counts,
        # each count the float of the array power weak_scan takes
        counts = np.arange(1, row.size + 1, dtype=float) * cell_measure
        if p != 1.0:
            counts = counts ** (1.0 / p)
        best = -math.inf
        for value, count in zip(sorted(row.tolist(), reverse=True), counts.tolist()):
            best = max(best, value * count)
        return best

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("cell_measure", [0.125, 0.3])
    def test_batched_rows_match_descending_loop(self, rng, p, cell_measure):
        # ties, zero cells, a row of zeros and an infinite cell, in a (2, 3, N) batch
        values = rng.integers(0, 4, (2, 3, 32)) * rng.lognormal(0.0, 1.0, (2, 3, 32))
        values[0, 1] = 0.0
        values[1, 2, 7] = math.inf
        out = weak_scan(values, cell_measure, p)
        assert out.shape == (2, 3)
        expected = [[self._descending_loop(row, cell_measure, p) for row in block]
                     for block in values]
        assert out.tolist() == expected

    def test_input_unchanged(self, rng):
        values = rng.uniform(0.0, 1.0, (4, 16))
        before = values.copy()
        weak_scan(values, 0.25, 2.0)
        assert np.array_equal(values, before)


class TestLorentzNorm:
    def test_indicator_quarter_l2(self):
        f = StepFunction(unit_grid(2), [1, 0, 0, 0])
        assert lorentz_norm(f, 2, 2) == pytest.approx(0.5, abs=1e-15)

    def test_l1_is_integral(self):
        f = StepFunction(unit_grid(2), [1, 2, 3, 4])
        assert lorentz_norm(f, 1, 1) == pytest.approx(2.5, rel=1e-14)

    def test_spike_p2_q1_against_quadrature(self):
        f = StepFunction(unit_grid(2), [4, 0, 0, 0])
        expected = oracle_lorentz_by_quadrature(f, 2, 1)
        assert lorentz_norm(f, 2, 1) == pytest.approx(expected, rel=1e-8)
        # closed form: 2 * int_0^4 (1/4)^{1/2} dlam = 4
        assert lorentz_norm(f, 2, 1) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (1.5, 3), (3, 0.5)])
    def test_random_against_quadrature(self, p, q, rng):
        grid = unit_grid(3)
        for _ in range(5):
            f = StepFunction(grid, rng.uniform(0, 6, grid.finest_count))
            expected = oracle_lorentz_by_quadrature(f, p, q)
            assert lorentz_norm(f, p, q) == pytest.approx(expected, rel=1e-8)

    @given(step_functions(max_depth=3), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_p_equals_q_is_lp(self, f, p):
        direct = (float((f.values ** p).sum()) * f.grid.cell_measure) ** (1 / p)
        assert lorentz_norm(f, p, p) == pytest.approx(direct, rel=1e-12, abs=1e-300)

    @given(step_functions(max_depth=3), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_chebyshev_embedding(self, f, p):
        assert weak_norm(f, p) <= lorentz_norm(f, p, p) * (1 + 1e-12) + 1e-300

    def test_infinite_q_rejected(self):
        f = StepFunction(unit_grid(1), [1, 2])
        with pytest.raises(ValueError):
            lorentz_norm(f, 2, Q_INF)
        with pytest.raises(ValueError):
            lorentz_norm(f, 2, math.inf)


class TestPowerIdentity:
    def test_indicator_exact(self):
        f = StepFunction(unit_grid(2), [0, 3, 3, 0])
        for (p, q) in [(1, Q_INF), (2, 2), (2, 1)]:
            ok, residual = power_identity_check(f, 2.0, p, q)
            assert ok and residual < 1e-12

    def test_staircase_weak(self):
        f = StepFunction(unit_grid(2), [1, 2, 3, 4])
        ok, residual = power_identity_check(f, 2.0, 1.0, Q_INF)
        assert ok, residual

    def test_seeded_sweep(self, rng):
        grid = unit_grid(4)
        for _ in range(100):
            f = StepFunction(grid, rng.uniform(0, 4, grid.finest_count))
            for r in (0.5, 2.0, 3.0):
                for (p, q) in [(1.0, Q_INF), (2.0, 2.0), (2.0, 1.0)]:
                    ok, residual = power_identity_check(f, r, p, q)
                    assert ok, (r, p, q, residual)


class TestHolder:
    def test_indicator_rhs_form(self):
        # ||chi_Q||_{s',1} = s' |Q|^{1 - 1/s}
        grid = unit_grid(2)
        g = StepFunction(grid, [1, 1, 0, 0])
        s = 2.0
        s_conj = s / (s - 1)
        assert lorentz_norm(g, s_conj, 1) == pytest.approx(s_conj * 0.5 ** (1 - 1 / s), rel=1e-14)

    def test_weight_cutoff_case(self, rng):
        grid = unit_grid(3)
        w = StepFunction(grid, rng.uniform(0.1, 5, grid.finest_count))
        cutoff = StepFunction(grid, grid.cell_mask(DyadicCube(1, (0,))).astype(float))
        ok, slack = lorentz_holder_check(w ** 0.5, cutoff, 2.0)
        assert ok and slack >= -1e-12

    def test_zero_function(self):
        grid = unit_grid(2)
        ok, slack = lorentz_holder_check(StepFunction.constant(grid, 0.0),
                                         StepFunction.constant(grid, 1.0), 2.0)
        assert ok and slack >= 0

    def test_grid_mismatch(self):
        f = StepFunction(unit_grid(1), [1, 1])
        g = StepFunction(unit_grid(2), [1, 1, 1, 1])
        with pytest.raises(ValueError):
            lorentz_holder_check(f, g, 2.0)

    def test_seeded_pairs(self, rng):
        grid = unit_grid(4)
        for _ in range(50):
            f = StepFunction(grid, rng.uniform(0, 3, grid.finest_count))
            g = StepFunction(grid, rng.uniform(0, 3, grid.finest_count))
            for s in (1.5, 2.0, 4.0):
                ok, slack = lorentz_holder_check(f, g, s)
                assert ok, (s, slack)
