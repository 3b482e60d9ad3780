"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np

from weakmax import (
    GridSpec,
    MaximalQuery,
    PowerWeight,
    Q_INF,
    StepFunction,
    a1_constant,
    a1q_constant,
    ap_constant,
    ap_star_constant,
    ap_star_cube_value,
    apq_constant,
    apq_star_constant,
    build_sparse,
    cz_decompose,
    dual_weight,
    dyadic_maximal,
    lemma_suite,
    multiplier_ratio,
    random_step,
    random_weight,
    rh_constant,
    sigma_rh_constant,
    sparse_sum,
    sufficiency_check,
)
from weakmax.cli import main as cli_main

from conftest import constant, unit_grid
from oracles import brute_force_maximal, chebyshev_check, power_identity_check
from test_czsparse import check_invariants


def _report(num, name, passed, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"acceptance {num} ({name}): {detail}"


def test_1_oracle_equivalence():
    violations = []
    checked = 0
    for n, max_depth, base in ((1, 6, 100), (2, 3, 200)):
        for i in range(100):
            rng = np.random.default_rng(base + i)
            depth = int(rng.integers(1, max_depth + 1))
            grid = GridSpec(n, (0.0,) * n, 1.0, depth)
            f = StepFunction(grid, rng.uniform(0.0, 5.0, grid.finest_count))
            w = StepFunction(grid, rng.uniform(0.2, 3.0, grid.finest_count))
            alpha = 0.5 * n
            queries = {
                "plain": MaximalQuery(),
                "fractional": MaximalQuery(alpha=alpha),
                "weighted": MaximalQuery(weight=w),
                "fractional-weighted": MaximalQuery(alpha=alpha, weight=w),
            }
            for label, query in queries.items():
                fast = dyadic_maximal(f, query).values
                slow = brute_force_maximal(f, query).values
                checked += 1
                if not np.allclose(fast, slow, rtol=1e-13, atol=1e-300):
                    violations.append((n, i, label))
    _report(1, "oracle equivalence", not violations,
            f"{checked} operator evaluations, violations={violations}")


def test_2_trivial_exactness():
    grid = unit_grid(3)
    w = constant(grid, 1.0)
    p, q, r = 2.0, 4.0, 2.0
    constants = {
        "A_p": ap_constant(w, p).value,
        "A_1": a1_constant(w).value,
        "A_pq": apq_constant(w, p, q).value,
        "A_1q": a1q_constant(w, q).value,
        "RH_r": rh_constant(w, r).value,
        "A_p_star": ap_star_constant(w, p).value,
        "A_pq_star": apq_star_constant(w, p, q).value,
        "sigma_RH": sigma_rh_constant(w, p).value,
    }
    bad = {k: v for k, v in constants.items() if abs(v - 1.0) > 1e-12}
    ratio = multiplier_ratio(constant(grid, 1.0), w, p)
    ratio_ok = abs(ratio - 1.0) <= 1e-12
    _report(2, "trivial exactness", not bad and ratio_ok,
            f"constants off: {bad}, chi_root ratio = {ratio}")


def test_3_lorentz_power_identity():
    grid = unit_grid(6)
    worst = 0.0
    failures = 0
    for i in range(100):
        rng = np.random.default_rng(300 + i)
        f = StepFunction(grid, rng.uniform(0.0, 4.0, grid.finest_count))
        for r in (0.5, 2.0, 3.0):
            for (p, q) in ((1.0, Q_INF), (2.0, 2.0), (2.0, 1.0)):
                ok, residual = power_identity_check(f, r, p, q)
                worst = max(worst, residual)
                failures += not ok
    _report(3, "Lorentz power identity", failures == 0 and worst <= 1e-10,
            f"900 checks, max residual {worst:.2e}")


def test_4_chebyshev_ordering():
    grid = unit_grid(6)
    failures = 0
    for i in range(200):
        rng = np.random.default_rng(400 + i)
        f = random_step(grid, rng)
        w = random_weight(grid, rng)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        failures += not chebyshev_check(f, w, p)
    _report(4, "Chebyshev weak <= strong", failures == 0,
            f"200 seeded triples, failures={failures}")


def test_5_lemma_suites():
    bad = []
    # exhaustive dyadic subsets at D <= 4, plus random cell unions
    for i in range(6):
        rng = np.random.default_rng(500 + i)
        w = random_weight(unit_grid(4), rng)
        for p in (1.5, 2.0, 3.0):
            rep = lemma_suite(w, p, seed=500 + i, n_random=64)
            if not rep.verdict:
                bad.append(("plain", i, p, rep.measured_ratio))
        rep = lemma_suite(w, 2.0, q=4.0, seed=500 + i, n_random=64)
        if not rep.verdict:
            bad.append(("fractional", i, rep.measured_ratio))
    # 64 random cell unions per cube at D = 8
    for i in range(2):
        rng = np.random.default_rng(550 + i)
        w = random_weight(unit_grid(8), rng)
        rep = lemma_suite(w, 2.0, seed=550 + i, n_random=64)
        if not rep.verdict:
            bad.append(("deep", i, rep.measured_ratio))
    _report(5, "reverse-Hoelder lemma suites", not bad, f"violations={bad}")


def test_6_inverse_x_experiment():
    pw = PowerWeight(0.0, -1.0, 0.0, 1.0)
    issues = []
    if ap_constant(pw, 2.0, depth=6).value != math.inf:
        issues.append("analytic A_2 not infinite")
    for k in range(0, 13):
        val = ap_star_cube_value(pw, 2.0, 0.0, 2.0 ** -k)
        if abs(val - 0.5) > 1e-10:
            issues.append(f"per-cube value at 2^-{k}: {val}")
    if not math.isfinite(ap_star_constant(pw, 2.0, depth=12).value):
        issues.append("analytic dyadic A_2^* not finite")
    stars, aps = [], []
    for depth in (6, 8, 10, 12):
        tab = pw.tabulate(depth)
        stars.append(ap_star_constant(tab, 2.0).value)
        aps.append(ap_constant(tab, 2.0).value)
    if aps != sorted(aps):
        issues.append(f"A_2 not monotone in depth: {aps}")
    if aps[-1] / aps[0] < 1.3:
        issues.append(f"A_2 growth {aps[-1] / aps[0]:.3f} < 1.3")
    spread = max(stars) / min(stars) - 1.0
    if spread >= 0.05:
        issues.append(f"A_2^* spread {spread:.3%} >= 5%")
    _report(6, "|x|^-1 experiment", not issues,
            f"A_2 by depth {[round(a, 3) for a in aps]}, "
            f"A_2^* spread {spread:.2%}, issues={issues}")


def test_7_sandwich():
    grid = unit_grid(6)
    bad = []
    worst_norm = -math.inf
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        w = random_weight(grid, rng)
        for p in (1.5, 2.0, 3.0):
            rep = sufficiency_check(w, p, c_desk=8.0, seed=7000 + i, n_random=200)
            floor = ap_star_constant(w, p).value ** (1.0 / p)
            worst_norm = max(worst_norm, rep.normalized)
            if rep.measured_ratio < floor - 1e-9:
                bad.append(("necessity", i, p))
            if not rep.verdict:
                bad.append(("sufficiency", i, p, rep.normalized))
        rep = sufficiency_check(w, 2.0, alpha=0.25, q=4.0, c_desk=8.0,
                                seed=7000 + i, n_random=200)
        floor = apq_star_constant(w, 2.0, 4.0).value
        if rep.measured_ratio < floor - 1e-9:
            bad.append(("necessity-fractional", i))
        if not rep.verdict:
            bad.append(("sufficiency-fractional", i, rep.normalized))
    _report(7, "necessity/sufficiency sandwich", not bad,
            f"50 weights x (p in 1.5,2,3 and fractional), "
            f"worst normalized {worst_norm:.3f} (c_desk=8), bad={bad}")


def test_8_cz_sparse_certificates():
    grid = unit_grid(6)
    bad = []
    instances = [( "spiky", 8000 + i) for i in range(50)]
    instances += [("lognormal", 9300 + i) for i in range(50)]
    for kind, seed in instances:
        f = random_step(grid, np.random.default_rng(seed), kind)
        w = random_weight(grid, np.random.default_rng(seed + 13))
        for alpha, a, q in ((0.0, 4.0, None), (0.25, None, 4.0)):
            try:
                dec = cz_decompose(f, a=a, alpha=alpha)
                check_invariants(dec)
                family = build_sparse(dec)
            except Exception as exc:
                bad.append((kind, seed, alpha, repr(exc)))
                continue
            for e in family.entries:
                e_meas = e.e_cells.size * grid.cell_measure
                if grid.cube_measure(e.cube.level) > 2.0 * e_meas:
                    bad.append((kind, seed, alpha, "sparsity"))
            sigma = dual_weight(w, 2.0, "ap" if q is None else "apq")
            trace = sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)
            if not trace.all_hold:
                bad.append((kind, seed, alpha, "trace",
                            [l.to_dict() for l in trace.links if l.holds is False]))
    _report(8, "CZ/sparse certificates", not bad,
            f"100 functions x (plain, fractional), bad={bad}")


def test_9_cli_determinism(tmp_path):
    w = StepFunction(unit_grid(2), [2, 2, 1, 1])
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"mode": "tabulated", "step": w.to_dict()}))
    issues = []
    argv = ["verify", "--weight", str(wfile), "--p", "2", "--seed", "7",
            "--n-random", "60"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli_main(argv + ["--output", str(out1)])
    code2 = cli_main(argv + ["--output", str(out2)])
    if (code1, code2) != (0, 0):
        issues.append(f"exit codes {code1}, {code2}")
    if out1.read_bytes() != out2.read_bytes():
        issues.append("reports not byte-identical")
    if json.loads(out1.read_text())["verdict"] is not True:
        issues.append("verify verdict not true")
    if cli_main(["verify", "--weight", str(wfile), "--p", "2",
                 "--n-random", "10", "--c-desk", "1e-9",
                 "--output", str(tmp_path / "fail.json")]) != 2:
        issues.append("verification failure did not exit 2")
    if cli_main(["verify", "--weight", "/no/such/file.json"]) != 1:
        issues.append("usage error did not exit 1")
    _report(9, "CLI determinism and exit codes", not issues, f"issues={issues}")
