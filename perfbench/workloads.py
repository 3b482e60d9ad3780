"""The four benchmark workloads: seeded inputs, operation lists, and the
flattened outputs the reference gate compares.

Every workload is a fixed list of operations built from an instance number
(the benchmark seed modulo ``INSTANCES``, so every instance has a recorded
reference).  An operation returns a flat ``{key: leaf}`` dict: verdicts,
witness labels and cubes, exit codes and counts (compared exactly), ratios
and constants (compared at relative 1e-12).  Library functions are looked
up on their modules at call time, so the traced run sees the wrappers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

WORKLOADS = ("verify_cli", "sweep_small", "lemmas", "cz_constants")

# Seeds are reduced modulo this many instances; each has a recorded reference.
INSTANCES = 16

# Fixed sizes.  "toy" exists only for the benchmark's own self-check.
SIZES = {
    "full": {
        "verify_depth": 10, "verify_depth_2d": 5, "n_random": 200,
        "sweep_weights": 14, "sweep_depth": 6,
        "lemma_depth": 8, "lemma_depth_2d": 4, "lemma_random": 64,
        "cz_depth": 14, "cz_depth_2d": 7, "cz_seeds": 3, "power_depth": 12,
    },
    "toy": {
        "verify_depth": 4, "verify_depth_2d": 2, "n_random": 8,
        "sweep_weights": 2, "sweep_depth": 3,
        "lemma_depth": 3, "lemma_depth_2d": 2, "lemma_random": 4,
        "cz_depth": 5, "cz_depth_2d": 3, "cz_seeds": 1, "power_depth": 4,
    },
}

CLI_SEED = "7"
INVERSE_X = {"mode": "power", "center": 0.0, "exponent": -1.0, "root": [0.0, 1.0]}


class Op(NamedTuple):
    """One timed operation: ``run(tracer)`` returns its flattened outputs."""

    label: str
    run: Callable


# ------------------------------------------------------------------ outputs

def _leaf(v):
    if isinstance(v, np.generic):
        return v.item()
    return v


def flatten(obj, prefix="") -> dict:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return {prefix: _leaf(obj)}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def report_outputs(report: dict) -> dict:
    """A report dict with its per-cube rows summarized (count, sum, max)."""
    rows = report.get("per_cube") or []
    ratios = [r["ratio"] for r in rows]
    summary = {"rows": len(rows), "ratio_sum": math.fsum(ratios),
               "ratio_max": max(ratios, default=0.0)}
    return {**report, "per_cube": summary}


# ---------------------------------------------------------------- workloads

def _grid(n, depth):
    from weakmax import GridSpec
    return GridSpec(n, (0.0,) * n, 1.0, depth)


def _rng(*key):
    return np.random.default_rng(key)


def _cli_op(label, argv, root: Path, workdir: Path):
    cmd = [sys.executable, "-m", "weakmax.cli", *argv]

    def run(tracer):
        if tracer is None:
            proc = subprocess.run(cmd, cwd=root, capture_output=True, check=False)
        else:
            proc = _traced_cli(tracer, argv, root, workdir)
        out = {"exit_code": proc.returncode}
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            out["stdout"] = "unparseable"
            return out
        doc["necessity"] = report_outputs(doc["necessity"])
        out.update(flatten(doc))
        return out

    return Op(label, run)


def _traced_cli(tracer, argv, root: Path, workdir: Path):
    """Send the argv through weakmax.cli.main in a child that installs the
    span wrappers first, then merge its spans under the current op."""
    from time import perf_counter

    spans = workdir / "cli-spans.npz"
    cmd = [sys.executable, str(root / "perfbench" / "cli_child.py"), str(spans), *argv]
    spawned = perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, check=False)
    with np.load(spans) as data:
        tracer.merge(data, tracer.current_op)
        tracer.add("cli.startup", spawned, float(data["imported"]))
    spans.unlink()
    return proc


def build_verify_cli(instance, size, root, workdir):
    from weakmax import random_weight, weight_to_dict

    rng = _rng(1, instance)
    specs = {
        "w1d": weight_to_dict(random_weight(_grid(1, size["verify_depth"]), rng)),
        "w2d": weight_to_dict(random_weight(_grid(2, size["verify_depth_2d"]), rng)),
        "inverse_x": INVERSE_X,
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    common = ["--p", "2", "--seed", CLI_SEED, "--n-random", str(size["n_random"])]
    runs = [
        ("lognormal_1d_p2", ["--weight", str(paths["w1d"])]),
        ("lognormal_1d_fractional", ["--weight", str(paths["w1d"]), "--alpha", "0.25",
                                     "--q", "4"]),
        ("inverse_x", ["--weight", str(paths["inverse_x"]),
                       "--depth", str(size["verify_depth"])]),
        ("lognormal_2d_p2", ["--weight", str(paths["w2d"])]),
    ]
    return [_cli_op(label, ["verify", *argv, *common], root, workdir)
            for label, argv in runs]


def build_sweep_small(instance, size, root, workdir):
    from weakmax import harness, random_weight

    rng = _rng(2, instance)
    grid = _grid(1, size["sweep_depth"])
    ops = []
    for i in range(size["sweep_weights"]):
        w = random_weight(grid, rng)
        for p in (1.5, 2.0, 3.0):
            def run(tracer, w=w, p=p):
                suf = harness.sufficiency_check(w, p, seed=int(CLI_SEED),
                                                n_random=size["n_random"])
                nec = harness.necessity_check(w, p)
                return {**flatten(report_outputs(suf.to_dict()), "sufficiency"),
                        **flatten(report_outputs(nec.to_dict()), "necessity")}
            ops.append(Op(f"w{i}_p{p}", run))
    return ops


def build_lemmas(instance, size, root, workdir):
    from weakmax import PowerWeight, harness, random_weight

    rng = _rng(3, instance)
    w1 = random_weight(_grid(1, size["lemma_depth"]), rng)
    w2 = random_weight(_grid(2, size["lemma_depth_2d"]), rng)
    inverse_x = PowerWeight(0.0, -1.0, 0.0, 1.0)
    cases = [
        ("lognormal_1d", w1, {}),
        ("lognormal_1d_fractional", w1, {"q": 4.0}),
        ("lognormal_2d", w2, {}),
        ("inverse_x", inverse_x, {"depth": size["lemma_depth"]}),
    ]
    ops = []
    for label, w, kw in cases:
        def run(tracer, w=w, kw=kw):
            rep = harness.lemma_suite(w, 2.0, n_random=size["lemma_random"], **kw)
            return flatten(rep.to_dict())
        ops.append(Op(label, run))
    return ops


def _certificate(f, w, fractional):
    from weakmax import czsparse, weights

    alpha, q = (f.grid.n / 4.0, 4.0) if fractional else (0.0, None)

    def run(tracer):
        dec = czsparse.cz_decompose(f, alpha=alpha)
        out = {"k_min": dec.k_min, "k_max": dec.k_max,
               "stopping_cubes": [len(dec.cubes[k]) for k in range(dec.k_min, dec.k_max + 1)]}
        try:
            family = czsparse.build_sparse(dec)
        except czsparse.SparsityError:
            out["error"] = "SparsityError"
            return flatten(out)
        sigma = weights.dual_weight(w, 2.0, "apq" if fractional else "ap")
        trace = czsparse.sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)
        out["entries"] = len(family.entries)
        out["trace"] = trace.to_dict()
        return flatten(out)

    return run


def _constant_set(w, p, depth):
    """The `weakmax constants` set: seven classes and both sigma-RH pairs."""
    from weakmax import weights

    def run(tracer):
        q, r = 2.0 * p, 2.0
        out = [
            weights.ap_constant(w, p, depth=depth).to_dict(),
            weights.a1_constant(w, depth=depth).to_dict(),
            weights.apq_constant(w, p, q, depth=depth).to_dict(),
            weights.a1q_constant(w, q, depth=depth).to_dict(),
            weights.rh_constant(w, r, depth=depth).to_dict(),
            weights.ap_star_constant(w, p, depth=depth).to_dict(),
            weights.apq_star_constant(w, p, q, depth=depth).to_dict(),
        ]
        c_plain, rh_plain = weights.sigma_rh_constant(w, p, depth=depth)
        c_frac, rh_frac = weights.sigma_rh_constant(w, p, q, depth=depth)
        out.append({"class": "sigma_rh", "c": c_plain, "value": rh_plain})
        out.append({"class": "sigma_rh_fractional", "c": c_frac, "value": rh_frac})
        return flatten(out)

    return run


def build_cz_constants(instance, size, root, workdir):
    from weakmax import PowerWeight, random_step, random_weight

    grids = [("1d", _grid(1, size["cz_depth"])), ("2d", _grid(2, size["cz_depth_2d"]))]
    ops = []
    for gi, (gname, grid) in enumerate(grids):
        for ki, kind in enumerate(("uniform", "lognormal", "spiky")):
            for s in range(size["cz_seeds"]):
                rng = _rng(4, instance, gi, ki, s)
                f = random_step(grid, rng, kind)
                w = random_weight(grid, rng)
                for fractional in (False, True):
                    label = f"cert_{gname}_{kind}_{s}_{'frac' if fractional else 'plain'}"
                    ops.append(Op(label, _certificate(f, w, fractional)))
    rng = _rng(4, instance, 99)
    tabulated = [(name, random_weight(grid, rng)) for name, grid in grids]
    backends = [(f"tab_{name}", w, None) for name, w in tabulated]
    backends.append(("inverse_x", PowerWeight(0.0, -1.0, 0.0, 1.0), size["power_depth"]))
    for p in (1.5, 2.0, 3.0):
        for name, w, depth in backends:
            ops.append(Op(f"constants_{name}_p{p}", _constant_set(w, p, depth)))
    return ops


BUILDERS = {
    "verify_cli": build_verify_cli,
    "sweep_small": build_sweep_small,
    "lemmas": build_lemmas,
    "cz_constants": build_cz_constants,
}


def build(workload: str, instance: int, sizes: str, root: Path, workdir: Path) -> list[Op]:
    return BUILDERS[workload](instance, SIZES[sizes], root, workdir)
