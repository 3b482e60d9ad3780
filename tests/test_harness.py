import math

import numpy as np
import pytest

from weakmax import (
    MaximalQuery,
    PowerWeight,
    StepFunction,
    ap_constant,
    ap_star_constant,
    chebyshev_check,
    dual_weight,
    dyadic_maximal,
    lemma_suite,
    multiplier_ratio,
    necessity_check,
    random_step,
    random_weight,
    sufficiency_check,
    verify_weight,
    weak_norm,
)

from conftest import unit_grid


class TestMultiplierRatio:
    def test_trivial_one(self):
        grid = unit_grid(3)
        one = StepFunction.constant(grid, 1.0)
        assert multiplier_ratio(one, one, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_spike_ratio_one(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [4, 0, 0, 0])
        w = StepFunction.constant(grid, 1.0)
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
        zero = StepFunction.constant(grid, 0.0)
        one = StepFunction.constant(grid, 1.0)
        with pytest.raises(ValueError):
            multiplier_ratio(zero, one, 2.0)


class TestChebyshev:
    def test_trivial(self):
        grid = unit_grid(2)
        one = StepFunction.constant(grid, 1.0)
        assert chebyshev_check(one, one, 2.0)

    def test_spike_values(self):
        grid = unit_grid(2)
        f = StepFunction(grid, [4, 0, 0, 0])
        w = StepFunction.constant(grid, 1.0)
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
        w = StepFunction.constant(grid, 1.0)
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

    def test_reports_reproducible(self):
        w = StepFunction(unit_grid(3), np.linspace(0.5, 2.0, 8))
        a = sufficiency_check(w, 2.0, seed=11, n_random=40).to_dict()
        b = sufficiency_check(w, 2.0, seed=11, n_random=40).to_dict()
        assert a == b


class TestNecessity:
    def test_trivial_weight(self):
        grid = unit_grid(3)
        w = StepFunction.constant(grid, 1.0)
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


class TestLemmaSuite:
    def test_trivial_weight(self):
        w = StepFunction.constant(unit_grid(3), 1.0)
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
        root = ap_constant(pw.power(0.5), 2.0, depth=5).value
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
