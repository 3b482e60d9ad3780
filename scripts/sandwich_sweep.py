#!/usr/bin/env python3
"""Two-sided sandwich sweep over seeded random weights.

For each weight the measured maximal ratio over the harness suite must sit
between the necessity floor [w]_{A_p^*}^(1/p) and c_desk times the
sufficiency bound ([w]_{A_p^*} [sigma]_RH)^(1/p).  Emits one CSV row per
(weight, p) plus ratio-vs-depth plot data for the first weight.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from weakmax import GridSpec, random_weight, sufficiency_check


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", type=int, default=20)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-random", type=int, default=100)
    parser.add_argument("--c-desk", type=float, default=8.0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(1, (0.0,), 1.0, args.depth)

    rows = []
    failures = 0
    for i in range(args.weights):
        rng = np.random.default_rng(args.seed + i)
        w = random_weight(grid, rng)
        for p in args.p:
            rep = sufficiency_check(w, p, c_desk=args.c_desk,
                                    seed=args.seed + i, n_random=args.n_random)
            floor = rep.context["star_constant"] ** (1.0 / p)
            ok = rep.verdict and rep.measured_ratio >= floor - 1e-9
            failures += not ok
            rows.append({
                "weight": i, "p": p, "depth": args.depth,
                "seed": args.seed + i,
                "necessity_floor": floor,
                "measured_ratio": rep.measured_ratio,
                "sufficiency_bound": rep.theoretical_bound,
                "normalized": rep.normalized,
                "pass": ok,
            })
    with open(out / "sandwich_sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    # ratio vs depth for one fixed weight profile (refined per depth)
    depth_rows = []
    for depth in range(3, args.depth + 1):
        g = GridSpec(1, (0.0,), 1.0, depth)
        rng = np.random.default_rng(args.seed)
        w = random_weight(g, rng)
        rep = sufficiency_check(w, 2.0, seed=args.seed, n_random=args.n_random)
        depth_rows.append({"depth": depth, "measured_ratio": rep.measured_ratio,
                           "bound": rep.theoretical_bound,
                           "normalized": rep.normalized})
    with open(out / "ratio_vs_depth.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(depth_rows[0].keys()))
        writer.writeheader()
        writer.writerows(depth_rows)

    worst = max(r["normalized"] for r in rows)
    print(f"{len(rows)} runs, failures={failures}, worst normalized {worst:.3f} "
          f"(c_desk={args.c_desk})")
    print(f"wrote {out}/sandwich_sweep.csv and {out}/ratio_vs_depth.csv")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
