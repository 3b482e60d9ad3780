import decimal
import json
import math
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from weakmax import (
    PowerWeight,
    StepFunction,
    a1_constant,
    a1q_constant,
    ap_constant,
    ap_star_constant,
    ap_star_cube_value,
    apq_constant,
    apq_star_constant,
    conjugate,
    dual_weight,
    build_sparse,
    cz_decompose,
    lemma_suite,
    necessity_check,
    random_step,
    random_weight,
    rh_constant,
    sigma_rh,
    sigma_rh_constant,
    sparse_sum,
    star_constant,
    sufficiency_check,
    verify_weight,
    weak_norm,
    weight_from_dict,
    weight_to_dict,
)

from weakmax import cli, weights
from weakmax.harness import _cell_masses

from conftest import constant, unit_grid
from oracles import (
    all_cubes,
    ap_star_kernel_constant,
    ap_star_kernel_cube_value,
    cube_average,
    cube_block,
    cube_weak_norm,
    power_cell_masses,
    power_ess_sup_inv,
    power_level_values,
    power_moment,
    power_rh_decimal,
    power_tabulate_values,
    rh_log_domain_constant,
    weight_cube_value,
)

INF = math.inf
CONSTANTS_WEIGHT = Path(__file__).parent / "data" / "constants" / "tab_1d_d6.weight.json"


# ---------------------------------------------------------------- oracles

def oracle_weak_l1(vals, cell_measure):
    """sup over distinct v > 0 of v * |{>= v}| straight from the definition."""
    best = 0.0
    for v in set(vals.tolist()):
        if v > 0:
            best = max(best, v * sum(1 for u in vals if u >= v) * cell_measure)
    return best


def oracle_constant(kind, w, p=None, q=None, r=None):
    """Per-cube python-loop evaluation of every constant over all cubes."""
    grid = w.grid
    best, witness = -INF, None
    for cube in all_cubes(grid):
        block = cube_block(w, cube)
        meas = grid.cube_measure(cube.level)
        avg = lambda arr: arr.sum() * grid.cell_measure / meas
        if kind == "ap":
            val = avg(block) * avg(block ** (1 - conjugate(p))) ** (p - 1)
        elif kind == "a1":
            val = avg(block) / block.min()
        elif kind == "apq":
            val = avg(block ** q) ** (1 / q) * avg(block ** -conjugate(p)) ** (1 / conjugate(p))
        elif kind == "a1q":
            val = avg(block ** q) ** (1 / q) / block.min()
        elif kind == "rh":
            val = avg(block ** r) ** (1 / r) / avg(block)
        elif kind == "ap_star":
            val = (oracle_weak_l1(block, grid.cell_measure) / meas
                   * avg(block ** (1 - conjugate(p))) ** (p - 1))
        elif kind == "apq_star":
            val = ((oracle_weak_l1(block ** q, grid.cell_measure) / meas) ** (1 / q)
                   * avg(block ** -conjugate(p)) ** (1 / conjugate(p)))
        else:
            raise AssertionError(kind)
        if val > best:
            best, witness = val, cube
    return best, witness


# ---------------------------------------------------------------- tabulated

class TestTrivialWeight:
    def test_all_constants_one(self):
        grid = unit_grid(3)
        w = constant(grid, 1.0)
        p, q, r = 2.0, 4.0, 2.0
        assert ap_constant(w, p).value == pytest.approx(1.0, abs=1e-12)
        assert a1_constant(w).value == pytest.approx(1.0, abs=1e-12)
        assert apq_constant(w, p, q).value == pytest.approx(1.0, abs=1e-12)
        assert a1q_constant(w, q).value == pytest.approx(1.0, abs=1e-12)
        assert rh_constant(w, r).value == pytest.approx(1.0, abs=1e-12)
        assert ap_star_constant(w, p).value == pytest.approx(1.0, abs=1e-12)
        assert apq_star_constant(w, p, q).value == pytest.approx(1.0, abs=1e-12)
        c_plain, rh_plain = sigma_rh_constant(w, p)
        assert (c_plain, rh_plain) == (pytest.approx(4.0), pytest.approx(1.0, abs=1e-12))
        c_frac, rh_frac = sigma_rh_constant(w, p, q)
        assert (c_frac, rh_frac) == (pytest.approx(2.0), pytest.approx(1.0, abs=1e-12))


class TestWorkedExamples:
    def test_ap_quarters(self):
        w = StepFunction(unit_grid(2), [2, 2, 1, 1])
        const = ap_constant(w, 2)
        assert const.value == pytest.approx(1.125, abs=1e-15)
        assert const.witness.level == 0

    def test_a1_halves(self):
        w = StepFunction(unit_grid(1), [2, 1])
        assert a1_constant(w).value == pytest.approx(1.5, abs=1e-15)
        assert a1_constant(StepFunction(unit_grid(1), [1, 2])).value == pytest.approx(1.5)

    def test_rh_halves(self):
        w = StepFunction(unit_grid(1), [2, 1])
        expected = math.sqrt(2.5) / 1.5
        assert rh_constant(w, 2).value == pytest.approx(expected, rel=1e-14)
        assert rh_constant(constant(unit_grid(2), 3.0), 2).value == pytest.approx(1.0)

    def test_apq_halves_hand_expansion(self):
        w = StepFunction(unit_grid(1), [2, 1])
        p, q = 2.0, 4.0
        root = ((16 + 1) / 2) ** 0.25 * ((0.25 + 1) / 2) ** 0.5
        assert apq_constant(w, p, q).value == pytest.approx(max(root, 1.0), rel=1e-14)

    def test_apq_exponent_error(self):
        w = constant(unit_grid(1), 1.0)
        with pytest.raises(ValueError):
            apq_constant(w, 2.0, 2.0)
        with pytest.raises(ValueError):
            apq_star_constant(w, 2.0, 1.5)

    @pytest.mark.parametrize("p", [1.0, math.inf, math.nan])
    def test_conjugate_needs_finite_p_above_one(self, p):
        with pytest.raises(ValueError, match="1 < p < inf"):
            conjugate(p)

    @pytest.mark.parametrize("constant,args", [
        (ap_constant, (INF,)), (ap_star_constant, (INF,)),
        (apq_constant, (2.0, INF)), (apq_star_constant, (2.0, INF)),
        (a1q_constant, (INF,)), (rh_constant, (INF,)), (rh_constant, (math.nan,)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_non_finite_exponents_rejected(self, constant, args):
        w = StepFunction(unit_grid(2), [2, 2, 1, 1])
        with pytest.raises(ValueError, match="< inf"):
            constant(w, *args)

    def test_ap_star_quarters(self):
        w = StepFunction(unit_grid(2), [2, 2, 1, 1])
        star = ap_star_constant(w, 2)
        expected, _ = oracle_constant("ap_star", w, p=2)
        assert star.value == pytest.approx(expected, rel=1e-14)
        assert star.value <= ap_constant(w, 2).value + 1e-15


class TestRHScale:
    @pytest.mark.parametrize("values,r", [([1.7e308] * 4, 1.0001), ([1.7e308] * 2, 1.0001),
                                          ([1e-300] * 4, 2.0), ([1.0] * 4, 2000.0),
                                          ([0.5] * 4, 2000.0)],
                             ids=["sums_overflow", "power_overflows", "power_underflows",
                                  "unit_past_budget", "half_past_budget"])
    def test_constant_weight(self, values, r):
        # unscaled, the level sums of w^r overflow (first), w^r itself
        # overflows (second) or underflows (third and fifth); RH of a
        # constant is 1, also at a power past the scale budget
        w = StepFunction(unit_grid(1 if len(values) == 2 else 2), values)
        assert rh_constant(w, r).value == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("r", [600.0, 2000.0, 1e4])
    def test_past_budget_finite(self, r):
        # past the budget the largest value goes into [1, 2), and its r-th
        # power alone may overflow; each cube's moment relative to its own
        # largest value keeps [w]_{RH_r} <= max_Q (max_Q w) / <w>_Q finite
        spec = json.loads(CONSTANTS_WEIGHT.read_text())
        w = weight_from_dict(spec)
        value = rh_constant(w, r).value
        bound = max(float(cube_block(w, c).max()) / cube_average(w, c) for c in all_cubes(w.grid))
        assert math.isfinite(value) and 1.0 <= value <= bound
        assert value == pytest.approx(rh_log_domain_constant(w, r), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pw,r", [
        (PowerWeight(0.3, 2.0, 0.0, 4.0), 479.0),
        (PowerWeight(0.3, 2.0, 0.0, 4.0), 600.0),
        (PowerWeight(0.3, 2.0, 0.0, 4.0), 2000.0),
        (PowerWeight(5.0, -3.0, 0.0, 1.0), 700.0),
    ], ids=["overflow_479", "overflow_600", "overflow_2000", "underflow_700"])
    def test_power_past_float_range(self, pw, r):
        # the closed form of <w^r>_Q overflows (w reaches 13.7 on [0, 4)) or
        # underflows (w <= 4^-3 on [0, 1)) on some cubes, where taking it
        # relative to ess sup_Q w keeps [w]_{RH_r} finite and exact
        value = rh_constant(pw, r, depth=6).value
        sides = [pw.lattice(6).side(level) for level in range(7)]
        cubes = [(pw.left + i * h, pw.left + (i + 1) * h) for h in sides
                 for i in range(round((pw.right - pw.left) / h))]
        bound = max(power_ess_sup_inv(pw ** -1.0, lo, hi) / (power_moment(pw, 1.0, lo, hi) / (hi - lo))
                    for lo, hi in cubes)
        assert math.isfinite(value)
        assert rh_constant(pw, 100.0, depth=6).value <= value <= bound
        assert value == pytest.approx(power_rh_decimal(pw, r, 6), rel=1e-12, abs=0.0)

    def test_power_mean_past_float_range(self):
        # <w>_Q itself overflows for w = x^400 on [0, 10); every cube with 0
        # in its closure attains [w]_{RH_2} = 401 / 801^(1/2)
        pw = PowerWeight(0.0, 400.0, 0.0, 10.0)
        value = rh_constant(pw, 2.0, depth=6).value
        assert value == pytest.approx(401.0 / math.sqrt(801.0), rel=1e-13)
        assert value == pytest.approx(power_rh_decimal(pw, 2.0, 6), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("pw", [PowerWeight(0.0, -1.0, 0.0, 1.0),
                                    PowerWeight(0.77, -0.5, 0.0, 1.0)])
    @pytest.mark.parametrize("r", [2.0, 600.0, 2000.0])
    def test_power_divergence_stays_infinite(self, pw, r):
        # |x - c|^(exponent r) is not integrable at c once exponent r <= -1
        assert rh_constant(pw, r, depth=6).value == INF == power_rh_decimal(pw, r, 6)

    def test_degree_zero(self, rng):
        w = random_weight(unit_grid(5), rng)
        expected = rh_constant(w, 2.0)
        # 2^400 takes w^2 past the scale budget, though not past the float range
        for e in (-1000, -600, 400, 600, 1000):
            got = rh_constant(StepFunction(w.grid, np.ldexp(w.values, e)), 2.0)
            assert got.value == pytest.approx(expected.value, rel=1e-13)
            assert got.witness == expected.witness

    def test_in_range_unscaled(self, rng):
        # a weight whose squares stay within the scale budget is scanned as
        # given, bit for bit
        w = random_weight(unit_grid(5), rng)
        for e in (-200, 0, 200):
            values = np.ldexp(w.values, e)
            assert weights._unit_scale(values, 2.0) is values


class TestAgainstBruteForce:
    @pytest.mark.parametrize("kind,kwargs", [
        ("ap", {"p": 2.0}), ("ap", {"p": 1.5}), ("a1", {}),
        ("apq", {"p": 2.0, "q": 4.0}), ("a1q", {"q": 3.0}), ("rh", {"r": 2.0}),
        ("ap_star", {"p": 2.0}), ("ap_star", {"p": 3.0}),
        ("apq_star", {"p": 2.0, "q": 4.0}),
    ])
    def test_random_weights(self, kind, kwargs, rng):
        fns = {"ap": ap_constant, "a1": a1_constant, "apq": apq_constant,
               "a1q": a1q_constant, "rh": rh_constant, "ap_star": ap_star_constant,
               "apq_star": apq_star_constant}
        for n, depth in [(1, 4), (2, 2)]:
            grid = unit_grid(depth, n)
            for _ in range(8):
                w = StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count))
                fast = fns[kind](w, **kwargs)
                slow, _ = oracle_constant(kind, w, **kwargs)
                assert fast.value == pytest.approx(slow, rel=1e-13)

    def test_witness_reproduces_value(self, rng):
        grid = unit_grid(4)
        tabulated = [(StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count)), None)
                     for _ in range(5)]
        # Power exponents in (-1, 0), above 0 and below -1, centers on and off
        # cell edges: finite and infinite constants, singular and smooth cubes.
        power = [(PowerWeight(c, a, 0.0, 1.0), 6)
                 for c, a in [(0.3, -0.5), (0.5, 1.0), (0.0, -1.0), (0.77, -1.5),
                              (0.125, 0.3)]]
        for w, depth in tabulated + power:
            for kind, kwargs in [("ap", {"p": 2.0}), ("a1", {}), ("rh", {"r": 2.0}),
                                 ("apq", {"p": 2.0, "q": 4.0}), ("a1q", {"q": 4.0}),
                                 ("ap_star", {"p": 2.0}),
                                 ("apq_star", {"p": 2.0, "q": 4.0})]:
                fns = {"ap": ap_constant, "a1": a1_constant, "apq": apq_constant,
                       "a1q": a1q_constant, "rh": rh_constant,
                       "ap_star": ap_star_constant, "apq_star": apq_star_constant}
                const = fns[kind](w, **kwargs, depth=depth)
                again = weight_cube_value(w, kind, const.witness, **kwargs, depth=depth)
                assert again == const.value  # bit-identical re-evaluation

    def test_domination_weak_by_average(self, rng):
        grid = unit_grid(4)
        for _ in range(10):
            w = StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count))
            for cube in all_cubes(grid):
                meas = grid.cube_measure(cube.level)
                assert cube_weak_norm(w, 1.0, cube) / meas <= cube_average(w, cube) * (1 + 1e-14)
            assert ap_star_constant(w, 2).value <= ap_constant(w, 2).value * (1 + 1e-14)
            assert (apq_star_constant(w, 2, 4).value
                    <= apq_constant(w, 2, 4).value * (1 + 1e-14))


class TestDualWeight:
    def test_trivial(self):
        w = constant(unit_grid(2), 1.0)
        assert np.array_equal(dual_weight(w, 2.0).values, w.values)

    def test_halves(self):
        w = StepFunction(unit_grid(1), [4, 1])
        sigma = dual_weight(w, 2.0, "ap")
        assert np.allclose(sigma.values, [0.25, 1.0], rtol=0)

    def test_round_trip(self, rng):
        grid = unit_grid(4)
        for p in (1.5, 2.0, 3.0):
            w = StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count))
            sigma = dual_weight(w, p, "ap")
            back = dual_weight(sigma, conjugate(p), "ap")
            assert np.allclose(back.values, w.values, rtol=1e-12)

    def test_apq_exponent(self):
        w = StepFunction(unit_grid(1), [4, 1])
        sigma = dual_weight(w, 2.0, "apq")
        assert np.allclose(sigma.values, [4.0 ** -2, 1.0], rtol=0)

    def test_power_mode(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        sigma = dual_weight(pw, 2.0, "ap")
        assert sigma.exponent == pytest.approx(1.0)

    def test_positivity(self):
        w = StepFunction(unit_grid(1), [1, 0])
        with pytest.raises(ValueError):
            dual_weight(w, 2.0)

    def test_bad_flavor(self):
        w = constant(unit_grid(1), 1.0)
        with pytest.raises(ValueError):
            dual_weight(w, 2.0, "nope")


# ---------------------------------------------------------------- power mode

class TestPowerIntegrals:
    @pytest.mark.parametrize("c,a,lo,hi", [
        (0.0, -0.5, 0.0, 1.0), (0.0, -0.5, 0.25, 0.75), (0.5, -0.9, 0.0, 1.0),
        (0.0, 1.0, 0.0, 1.0), (0.3, 2.0, 0.0, 1.0), (-1.0, -0.5, 0.0, 1.0),
        (1.0, -0.25, 0.0, 1.0), (0.5, 0.5, 0.5, 0.75),
    ])
    def test_against_quadrature(self, c, a, lo, hi):
        pw = PowerWeight(c, a, 0.0, 1.0)
        pieces = sorted({lo, hi} | ({c} if lo < c < hi else set()))
        expected = sum(quad(lambda x: abs(x - c) ** a, u, v, limit=400)[0]
                       for u, v in zip(pieces, pieces[1:]))
        assert pw.integral(lo, hi) == pytest.approx(expected, rel=1e-9)

    def test_log_case(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        assert pw.integral(0.25, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
        assert pw.integral(0.0, 0.5) == INF

    def test_divergent_cases(self):
        pw = PowerWeight(0.5, -1.5, 0.0, 1.0)
        assert pw.integral(0.0, 1.0) == INF
        assert pw.integral(0.5, 0.75) == INF   # singular left endpoint
        assert math.isfinite(pw.integral(0.75, 1.0))

    def test_ess_sup_inv(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        assert pw.ess_sup_inv(0.25, 0.5) == pytest.approx(0.5)
        assert pw.ess_sup_inv(0.0, 1.0) == pytest.approx(1.0)
        up = PowerWeight(0.5, 1.0, 0.0, 1.0)
        assert up.ess_sup_inv(0.0, 1.0) == INF
        assert up.ess_sup_inv(0.75, 1.0) == pytest.approx(4.0)


def decimal_weak_l1(c, a, lo, hi, steps=60):
    """sup_t t^a h(t) in 40-digit decimal arithmetic, h(t) the measure of
    {x in [lo, hi): |x - c|^a > t^a}: the breakpoints |lo - c| and |hi - c|,
    and a golden-section search on each piece between them, where
    g = t^a h is unimodal.  The t -> 0 limit is left out: it is 0 for
    a > -1, and +inf for a < -1 with c in [lo, hi]."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        D = decimal.Decimal
        c, a, lo, hi = D(c), D(a), D(lo), D(hi)

        def g(t):
            overlap = max(D(0), min(hi, c + t) - max(lo, c - t))
            ht = overlap if a < 0 else hi - lo - overlap
            return t ** a * ht if ht > 0 else D(0)

        breaks = sorted({d for d in (abs(lo - c), abs(hi - c)) if d > 0})
        best = max(g(t) for t in breaks)
        shrink = (D(5).sqrt() - 1) / 2
        for x0, x1 in zip([D(0)] + breaks, breaks + [2 * breaks[-1] + hi - lo]):
            m1, m2 = x1 - shrink * (x1 - x0), x0 + shrink * (x1 - x0)
            g1, g2 = g(m1), g(m2)
            for _ in range(steps):
                if g1 < g2:
                    x0, m1, g1 = m1, m2, g2
                    m2 = x0 + shrink * (x1 - x0)
                    g2 = g(m2)
                else:
                    x1, m2, g2 = m2, m1, g1
                    m1 = x1 - shrink * (x1 - x0)
                    g1 = g(m1)
            best = max(best, g1, g2)
        return float(best)


class TestPowerWeakL1:
    def test_known_values(self):
        assert PowerWeight(0.0, -1.0, 0.0, 1.0).weak_l1(0.0, 0.5) == pytest.approx(1.0)
        assert PowerWeight(0.5, -1.0, 0.0, 1.0).weak_l1(0.0, 1.0) == pytest.approx(2.0)
        assert PowerWeight(0.0, -0.5, 0.0, 1.0).weak_l1(0.0, 1.0) == pytest.approx(1.0)
        # |x - 1/2| on [0,1): sup lam (1 - 2 lam) = 1/8
        assert PowerWeight(0.5, 1.0, 0.0, 1.0).weak_l1(0.0, 1.0) == pytest.approx(0.125)
        assert PowerWeight(0.0, -0.5, 0.0, 1.0).weak_l1(1.0, 2.0) == pytest.approx(
            math.sqrt(2) - 1 / math.sqrt(2), rel=1e-12)

    def test_infinite_when_supercritical(self):
        assert PowerWeight(0.5, -1.5, 0.0, 1.0).weak_l1(0.0, 1.0) == INF
        assert PowerWeight(0.0, -2.0, 0.0, 1.0).weak_l1(0.0, 0.25) == INF
        # supercritical exponent but singularity outside the cube: finite
        assert math.isfinite(PowerWeight(0.0, -2.0, 0.0, 1.0).weak_l1(0.5, 1.0))

    @pytest.mark.parametrize("c,a", [
        (0.0, -1.0), (0.0, -0.5), (0.3, -0.8), (1.0, -0.5), (-0.2, -0.6),
        (0.5, 1.0), (0.25, 0.5), (1.5, -1.2), (0.5, 2.0), (-0.5, 1.5),
    ])
    def test_against_dense_scan(self, c, a):
        pw = PowerWeight(c, a, 0.0, 1.0)
        for lo, hi in [(0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (0.5, 1.0)]:
            closed = pw.weak_l1(lo, hi)
            if not math.isfinite(closed):
                continue

            def measure(lam):
                t = lam ** (1.0 / a)
                overlap = max(0.0, min(hi, c + t) - max(lo, c - t))
                return overlap if a < 0 else (hi - lo) - overlap

            lams = np.logspace(-9, 9, 30000)
            scan = max(lam * measure(lam) for lam in lams)
            assert closed >= scan - 1e-9
            assert closed == pytest.approx(scan, rel=2e-3)

    # a centre inside a cell, on a cell edge, and outside the root on each side
    @pytest.mark.parametrize("c", [0.3, 0.25, -0.3, 1.25])
    @pytest.mark.parametrize("a", [-1.0 - 1e-6, -1.0 + 1e-6, 0.5, 2.0])
    def test_against_decimal_reference(self, c, a):
        pw = PowerWeight(c, a, 0.0, 1.0)
        grid = pw.lattice(2)
        for cube in all_cubes(grid):
            lo = cube.index[0] * grid.side(cube.level)
            hi = lo + grid.side(cube.level)
            closed = pw.weak_l1(lo, hi)
            if a < -1.0 and lo <= c <= hi:
                assert closed == INF
            else:
                assert closed == pytest.approx(decimal_weak_l1(c, a, lo, hi), rel=1e-13)

    @pytest.mark.parametrize("hi", [1.0, 0.9])
    def test_piece_read_from_distances(self, hi):
        # c - t_lo or c + t_lo rounds off the breakpoint lo here; reading a
        # piece's pinned ends from them misses the interior maximum by 16-21%
        pw = PowerWeight(0.4, 2.0, 0.0, 1.0)
        assert pw.weak_l1(0.15, hi) == pytest.approx(decimal_weak_l1(0.4, 2.0, 0.15, hi),
                                                     rel=1e-13)

    def test_power_argument(self):
        pw = PowerWeight(0.0, -0.25, 0.0, 1.0)
        direct = PowerWeight(0.0, -1.0, 0.0, 1.0).weak_l1(0.0, 0.5)
        assert pw.weak_l1(0.0, 0.5, power=4.0) == pytest.approx(direct, rel=1e-12)


class TestPowerConstants:
    def test_inverse_x_not_in_a2(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        assert ap_constant(pw, 2.0, depth=6).value == INF

    def test_inverse_x_star_per_cube_half(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        for k in range(0, 11):
            val = ap_star_cube_value(pw, 2.0, 0.0, 2.0 ** -k)
            assert val == pytest.approx(0.5, abs=1e-10)

    def test_inverse_x_star_finite(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        star = ap_star_constant(pw, 2.0, depth=8)
        assert math.isfinite(star.value)
        assert 0.5 <= star.value <= 1.0

    def test_quarter_power_fractional_flagship(self):
        # |x|^(-1/4) with q = 4: w^q = |x|^(-1) is not locally integrable, so
        # the A_{p,q} constant diverges while the multiplier constant stays
        # finite; the local-integrability conditions decide finiteness.
        pw = PowerWeight(0.0, -0.25, 0.0, 1.0)
        assert apq_constant(pw, 2.0, 4.0, depth=5).value == INF
        star = apq_star_constant(pw, 2.0, 4.0, depth=5)
        assert math.isfinite(star.value)

    def test_eighth_power_apq_finite(self):
        pw = PowerWeight(0.0, -0.125, 0.0, 1.0)
        const = apq_constant(pw, 2.0, 4.0, depth=5)
        assert math.isfinite(const.value)
        star = apq_star_constant(pw, 2.0, 4.0, depth=5)
        assert math.isfinite(star.value)
        assert star.value <= const.value * (1 + 1e-12)

    def test_sigma_rh_power(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        star = ap_star_constant(pw, 2.0, depth=6).value
        c, rh = sigma_rh_constant(pw, 2.0, depth=6)
        assert c == pytest.approx(4.0)
        assert rh == pytest.approx(star)  # p' - 1 = 1 at p = 2

    def test_depth_required(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ap_constant(pw, 2.0)

    def test_agrees_with_tabulated_when_smooth(self, rng):
        # away from the singularity the tabulated constants approach analytic
        pw = PowerWeight(-0.5, 1.0, 0.0, 1.0)
        analytic = ap_constant(pw, 2.0, depth=4).value
        tab = ap_constant(pw.tabulate(8), 2.0).value
        assert tab == pytest.approx(analytic, rel=0.05)


def same_bits(got, expected) -> bool:
    """Equal bit for bit elementwise, with nan equal to nan."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and bool(np.all(
        (np.isnan(got) & np.isnan(expected)) | (got.view(np.uint64) == expected.view(np.uint64))))


CLASS_PARAMS = {
    "ap": ("p",), "a1": (), "apq": ("p", "q"), "a1q": ("q",), "rh": ("r",),
    "ap_star": ("p",), "apq_star": ("p", "q"),
}


@st.composite
def power_weights(draw):
    """A power weight and a depth <= 8, its center inside the root, on a
    lattice cell edge, or outside the root."""
    depth = draw(st.integers(min_value=0, max_value=8))
    left, side = draw(st.sampled_from([(0.0, 1.0), (-1.0, 3.0), (0.25, 0.5)]))
    where = draw(st.sampled_from(["inside", "edge", "outside"]))
    if where == "inside":
        center = left + side * draw(st.integers(min_value=1, max_value=999)) / 1000.0
    elif where == "edge":
        center = left + draw(st.integers(min_value=0, max_value=2 ** depth)) * (side * 2.0 ** -depth)
    else:
        center = draw(st.sampled_from([left - 1e-4, left - 0.5 * side,
                                       left + 1.25 * side, left + side + 3.0]))
    exponent = draw(st.sampled_from([-2.0, -1.0 - 1e-6, -1.0, -1.0 + 1e-6, -0.5, 0.0, 1.0, 2.5]))
    return PowerWeight(center, exponent, left, left + side), depth


class TestPowerLevelsMatchOracle:
    """The per-level arrays of a power weight equal the one-cube-at-a-time
    Python-float closed forms bit for bit (nan equal to nan)."""

    @settings(max_examples=400)
    @given(power_weights(), st.sampled_from(sorted(CLASS_PARAMS)),
           st.sampled_from([1.5, 2.0, 3.0]))
    def test_constant_levels(self, drawn, kind, p):
        pw, depth = drawn
        values = {"p": p, "q": 2.0 * p, "r": p}
        kw = {name: values[name] for name in CLASS_PARAMS[kind]}
        grid = pw.lattice(depth)
        level_values = weights._levels(kind, pw, grid, **kw)
        for lev in range(depth + 1):
            assert same_bits(level_values(lev), power_level_values(kind, pw, grid, lev, **kw))

    @given(power_weights())
    def test_tabulate(self, drawn):
        pw, depth = drawn
        assert same_bits(pw.tabulate(depth).values, power_tabulate_values(pw, depth))

    @given(power_weights(), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from(["ap", "apq"]))
    def test_lemma_cell_masses(self, drawn, p, flavor):
        pw, depth = drawn
        sigma = dual_weight(pw, p, flavor)
        assert same_bits(_cell_masses(sigma, sigma.lattice(depth)),
                         power_cell_masses(sigma, depth))

    def test_floats_in_float_out(self):
        pw = PowerWeight(0.3, -0.5, 0.0, 1.0)
        for value in (pw.moment(2.0, 0.0, 0.5), pw.weak_l1(0.0, 0.5, power=2.0),
                      pw.ess_sup_inv(0.0, 0.5), ap_star_cube_value(pw, 2.0, 0.0, 0.5)):
            assert type(value) is float


class TestPowerOverflow:
    """A closed form past the float range reads +inf, never an exception."""

    # sigma = |x + 1e-4|^-100 (p = 1.01): its integral near the center ~ 1e394
    pw = PowerWeight(-1e-4, -100.0, 0.0, 1.0)

    def test_one_end_overflows(self):
        assert self.pw.moment(1.0, 0.0, 0.0625) == INF
        assert math.isfinite(self.pw.moment(1.0, 0.5, 1.0))

    def test_both_ends_overflow(self):
        # inf - inf is the divergence, not nan read as 0 by the constant scan
        assert self.pw.moment(1.0, 0.0, 1e-6) == INF

    def test_ess_sup_and_weak_norm(self):
        up = PowerWeight(-1e-4, 100.0, 0.0, 1.0)
        assert up.ess_sup_inv(0.0, 1.0) == INF
        assert self.pw.weak_l1(0.0, 1.0) == INF

    def test_constants(self):
        w = PowerWeight(-1e-4, 1.0, 0.0, 1.0)
        assert ap_constant(w, 1.01, depth=4).value == INF
        assert ap_star_constant(w, 1.01, depth=4).value == INF


class TestSigmaRH:
    """sigma_rh is arithmetic on the star constant: c = 4^{p'/p} with
    [w]_{A_p^*}^{p'-1} (plain) and c = 4^{p'/q} with [w]_{A_{p,q}^*}^{p'}
    (fractional)."""

    CASES = [
        ("tab_1d", StepFunction(unit_grid(4), np.exp(np.sin(np.arange(16.0)))), None),
        ("tab_2d", StepFunction(unit_grid(2, n=2), np.linspace(0.3, 3.0, 16)), None),
        ("inverse_x", PowerWeight(0.0, -1.0, 0.0, 1.0), 6),
        ("sqrt", PowerWeight(0.3, 0.5, 0.0, 1.0), 5),
        ("inverse_quarter", PowerWeight(0.0, -0.25, 0.0, 1.0), 5),
    ]

    @pytest.mark.parametrize("name,w,depth", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("p,q", [(2.0, None), (1.5, None), (3.0, None),
                                     (2.0, 4.0), (1.5, 6.0)])
    def test_matches_sigma_rh_constant(self, name, w, depth, p, q):
        star = star_constant(w, p, q, depth)
        pair = sigma_rh(star)
        assert pair == sigma_rh_constant(w, p, q, depth=depth)
        pc = conjugate(p)
        if q is None:
            assert star.tag == "ap_star"
            assert pair == (4.0 ** (pc / p), star.value ** (pc - 1.0))
        else:
            assert star.tag == "apq_star"
            assert pair == (4.0 ** (pc / q), star.value ** pc)

    def test_inverse_x_fractional_is_infinite(self):
        # w^q = |x|^-4 is not weakly integrable near 0, so A_{p,q}^* = +inf
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        p, q = 2.0, 4.0
        star = star_constant(pw, p, q, depth=4)
        assert star.value == INF
        pair = sigma_rh(star)
        assert pair == (4.0 ** (conjugate(p) / q), INF)
        assert pair == sigma_rh_constant(pw, p, q, depth=4)

    def test_star_power_overflow_is_infinite(self):
        # star ~ 3.5e169 is finite, but [sigma]_RH = star^2 passes the float range
        star = star_constant(StepFunction(unit_grid(3), [1.0] * 7 + [1e170]), 1.5)
        assert math.isfinite(star.value)
        assert sigma_rh(star) == (4.0 ** (conjugate(1.5) / 1.5), INF)

    def test_c_overflow_is_infinite(self):
        # p = 1.001: c = 4^{p'/p} = 4^1000 passes the float range
        star = star_constant(StepFunction(unit_grid(1), [1.0, 1.5]), 1.001)
        c, rh = sigma_rh(star)
        assert c == INF
        assert rh == star.value ** (conjugate(1.001) - 1.0)


@pytest.fixture
def star_scans(monkeypatch):
    """Count weights._scan calls per class tag."""
    counts = Counter()
    scan = weights._scan

    def counting(tag, *args, **kwargs):
        counts[tag] += 1
        return scan(tag, *args, **kwargs)

    monkeypatch.setattr(weights, "_scan", counting)
    return counts


def _stars(counts):
    return {tag: counts[tag] for tag in ("ap_star", "apq_star")}


class TestOneStarScan:
    """Every driver scans its star class once and derives sigma-RH from it."""

    PLAIN = {"ap_star": 1, "apq_star": 0}
    FRACTIONAL = {"ap_star": 0, "apq_star": 1}

    @pytest.mark.parametrize("alpha,q,expected", [(0.0, None, PLAIN), (0.25, 4.0, FRACTIONAL)])
    def test_sparse_sum(self, star_scans, alpha, q, expected):
        rng = np.random.default_rng(31)
        grid = unit_grid(5)
        f = random_step(grid, rng)
        w = random_weight(grid, rng, log_spread=0.5)
        family = build_sparse(cz_decompose(f, alpha=alpha))
        sigma = dual_weight(w, 2.0, "ap" if q is None else "apq")
        sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)
        assert _stars(star_scans) == expected

    @pytest.mark.parametrize("q,expected", [(None, PLAIN), (4.0, FRACTIONAL)])
    def test_lemma_suite(self, star_scans, q, expected):
        w = random_weight(unit_grid(3), np.random.default_rng(32))
        lemma_suite(w, 2.0, q, n_random=2)
        assert _stars(star_scans) == expected

    @pytest.mark.parametrize("alpha,q,expected", [(0.0, None, PLAIN), (0.25, 4.0, FRACTIONAL)])
    def test_necessity_check(self, star_scans, alpha, q, expected):
        necessity_check(PowerWeight(0.0, -0.5, 0.0, 1.0), 2.0, alpha, q, depth=3)
        assert _stars(star_scans) == expected

    @pytest.mark.parametrize("alpha,q,expected", [(0.0, None, PLAIN), (0.25, 4.0, FRACTIONAL)])
    def test_sufficiency_check(self, star_scans, alpha, q, expected):
        w = random_weight(unit_grid(3), np.random.default_rng(33))
        sufficiency_check(w, 2.0, alpha, q, n_random=2)
        assert _stars(star_scans) == expected

    @pytest.mark.parametrize("alpha,q,expected", [(0.0, None, PLAIN), (0.25, 4.0, FRACTIONAL)])
    def test_verify_weight(self, star_scans, monkeypatch, alpha, q, expected):
        # One resolution serves both sides: one star scan, and w and sigma
        # tabulated once each.
        tabulated = []
        tabulate = PowerWeight.tabulate

        def counting(self, depth):
            tabulated.append(self.exponent)
            return tabulate(self, depth)

        monkeypatch.setattr(PowerWeight, "tabulate", counting)
        verify_weight(PowerWeight(0.0, -0.5, 0.0, 1.0), 2.0, alpha, q, n_random=2, depth=3)
        assert _stars(star_scans) == expected
        assert len(tabulated) == 2

    def test_cli_constants(self, star_scans, tmp_path):
        path = tmp_path / "w.json"
        w = random_weight(unit_grid(3), np.random.default_rng(34))
        path.write_text(json.dumps(weight_to_dict(w)))
        out = tmp_path / "out.json"
        assert cli.main(["constants", "--weight", str(path), "--output", str(out)]) == 0
        assert _stars(star_scans) == {"ap_star": 1, "apq_star": 1}
        rows = {d["class"]: d for d in json.loads(out.read_text())}
        assert rows["sigma_rh"]["value"] == rows["ap_star"]["value"]  # p' - 1 = 1 at p = 2
        assert rows["sigma_rh_fractional"]["q"] == rows["apq_star"]["q"] == 4.0


class TestTabulate:
    def test_exact_averages_off_singularity(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        step = pw.tabulate(3)
        h = 1 / 8
        for j in range(1, 8):
            expected = math.log((j + 1) / j) / h
            assert step.values[j] == pytest.approx(expected, rel=1e-14)

    def test_singular_cell_harmonic_fallback(self):
        pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
        step = pw.tabulate(3)
        h = 1 / 8
        # 1 / <x^{-(-1)}>_cell = 1 / <x>_cell reciprocal: 2/h at the first cell
        assert step.values[0] == pytest.approx(2.0 / h * 0.5 / 0.5, rel=1e-14)
        assert step.values[0] == pytest.approx(1.0 / (h / 2.0), rel=1e-14)

    def test_linear_weight_exact(self):
        pw = PowerWeight(0.0, 1.0, 0.0, 1.0)
        step = pw.tabulate(2)
        assert np.allclose(step.values, [1 / 8, 3 / 8, 5 / 8, 7 / 8], rtol=1e-15)


class TestKernelForm:
    def test_trivial_weight_root_cube_bound(self):
        # on the root the kernel is at most 1/|root|, so the weak norm over
        # the root and hence the product stay at most one
        w = constant(unit_grid(4), 1.0)
        root_val = ap_star_kernel_cube_value(w, 2.0, w.grid.root)
        assert root_val <= 1.0 + 1e-12

    def test_star_dominated_by_kernel(self, rng):
        # on a cube the kernel is at least (1/|Q|)/(1 + 2^-p), so the cutoff
        # form of the constant is controlled by the kernel form
        grid = unit_grid(4)
        p = 2.0
        geom = 1.0 + 2.0 ** -p
        for _ in range(5):
            w = StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count))
            star = ap_star_constant(w, p).value
            kernel = ap_star_kernel_constant(w, p).value
            assert star <= geom * kernel * (1 + 1e-12)

    def test_finite_whenever_star_finite(self, rng):
        grid = unit_grid(3)
        for _ in range(10):
            w = StepFunction(grid, rng.uniform(0.1, 5.0, grid.finest_count))
            assert math.isfinite(ap_star_kernel_constant(w, 2.0).value)

    def test_power_mode_unsupported(self):
        with pytest.raises(ValueError):
            ap_star_kernel_constant(PowerWeight(0.0, -1.0, 0.0, 1.0), 2.0)


class TestSerialization:
    def test_tabulated_round_trip(self, rng):
        grid = unit_grid(3)
        w = StepFunction(grid, rng.uniform(0.2, 4.0, grid.finest_count))
        again = weight_from_dict(weight_to_dict(w))
        assert np.array_equal(again.values, w.values)

    def test_power_round_trip(self):
        pw = PowerWeight(0.25, -0.5, 0.0, 2.0)
        again = weight_from_dict(weight_to_dict(pw))
        assert again == pw

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            weight_from_dict({"mode": "mystery"})
