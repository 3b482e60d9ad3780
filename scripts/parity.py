#!/usr/bin/env python3
"""Hash a fixed, seeded corpus of weakmax calls, to show whether a change
keeps every output bit for bit.

The corpus covers the seven weight constants and both sigma-RH pairs on
tabulated 1-D, 2-D and 3-D weights and on power weights whose centre lies
inside the root, on a lattice edge, outside it and far away; the power
weights' cell averages (``tabulate``); ``verify_weight``,
``sufficiency_check`` and ``necessity_check``, each called alone, on
tabulated weights (1-D to 3-D, a constant one, one with zero cells, one
near 2^900) and power weights, ``verify_weight`` on |x - 1e300|^2.5, whose
cell averages leave the float range, and with a q but alpha = 0, and
``verify_weight`` at the benchmark's sizes (1-D depth 10, plain and
fractional, |x|^-1 at depth 10, 2-D depth 5); ``lemma_suite``, also at
the benchmark's sizes (1-D depth 8, 2-D depth 4, 64 unions per cube);
the CZ chain (``cz_decompose``, ``build_sparse``, ``sparse_sum``); and the
CLI on ``tests/data/constants/*.weight.json`` and, with ``verify`` and
``necessity --format csv``, on the benchmark-size weights.

Each call prints one line, ``<id> <sha256>``.  The hash covers the call's
result, with every float written as ``float.hex``, or else its error
message, plus the category and text of any warning it raised.

With ``--against REV`` the corpus runs twice, each time in a fresh
interpreter: on this tree's ``src/`` and on REV's, which ``git archive``
unpacks into a temporary directory (so nothing is written into the
repository's ``.git``).  The ids whose hashes differ are printed, and the
exit status is 1 if there are any.  Both runs read this tree's corpus and
data files.

    PYTHONPATH=src python scripts/parity.py [--toy]
    python scripts/parity.py --against HEAD~1 [--toy]

``--toy`` runs a smaller corpus of the same kinds of call, in about a
second.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "constants"

# centre inside the root, on a lattice edge (twice), outside it on each
# side, and far away, for power weights on [0, 1)
CENTRES = (0.3, 0.25, 0.0, -0.5, 1.25, 1e4, -1e8, 1e16, 1e300)
EXPONENTS = (-1.5, -1.0, -0.5, 0.5, 2.0)


def canonical(obj):
    """obj as JSON-ready data, with every float as float.hex."""
    if hasattr(obj, "to_dict"):
        return canonical(obj.to_dict())
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, float):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    raise TypeError(f"cannot hash a {type(obj).__name__}")


def digest(call) -> str:
    """sha256 of the call's canonical result or error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"result": canonical(call())}
        except Exception as exc:  # the error message is the result
            out = {"error": f"{type(exc).__name__}: {exc}"}
    out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _constants(name, w, ps, rs, depth):
    """The seven constants and both sigma-RH pairs of one weight."""
    from weakmax import weights

    yield f"{name}/a1", lambda: weights.a1_constant(w, depth=depth)
    for r in rs:
        yield f"{name}/rh/r{r}", lambda r=r: weights.rh_constant(w, r, depth=depth)
    for p in ps:
        q = 2.0 * p
        yield f"{name}/ap/p{p}", lambda p=p: weights.ap_constant(w, p, depth=depth)
        yield f"{name}/apq/p{p}", lambda p=p, q=q: weights.apq_constant(w, p, q, depth=depth)
        yield f"{name}/a1q/q{q}", lambda q=q: weights.a1q_constant(w, q, depth=depth)
        for tag, qq in (("plain", None), ("fractional", q)):
            def star(p=p, qq=qq):
                s = weights.star_constant(w, p, qq, depth=depth)
                return {"star": s, "sigma_rh": weights.sigma_rh(s)}
            yield f"{name}/star_{tag}/p{p}", star


def _cli(argv):
    from weakmax import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_on(w, argv):
    """The CLI on argv, with w written to a weight file for the call."""
    from weakmax import weight_to_dict

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_text(json.dumps(weight_to_dict(w)))
        return _cli([argv[0], "--weight", str(path), *argv[1:]])


def _chain(f, w, fractional):
    from weakmax import build_sparse, cz_decompose, dual_weight, sparse_sum

    n = f.grid.n
    alpha, q = (n / 4.0, 4.0) if fractional else (0.0, None)
    dec = cz_decompose(f, alpha=alpha)
    out = {"k_min": dec.k_min, "k_max": dec.k_max, "maximal": dec.maximal,
           "cubes": {k: [c.to_dict() for c in dec.cubes[k]] for k in sorted(dec.cubes)}}
    family = build_sparse(dec)
    sigma = dual_weight(w, 2.0, "apq" if fractional else "ap")
    out["family"] = family.to_json_list()
    out["trace"] = sparse_sum(family, w, sigma, p=2.0, alpha=alpha, q=q)
    return out


def corpus(toy: bool):
    """(id, call) pairs in a fixed order; every input is seeded."""
    from weakmax import (GridSpec, PowerWeight, StepFunction, lemma_suite, necessity_check,
                         random_step, random_weight, sufficiency_check, verify_weight)

    def grid(n, depth):
        return GridSpec(n, (0.0,) * n, 1.0, depth)

    depths = {1: (0, 3, 6), 2: (0, 2), 3: (1,)} if toy else \
        {1: (0, 3, 6, 8), 2: (0, 2, 4), 3: (0, 1, 2)}
    ps, rs = ((2.0,), (2.0, 600.0)) if toy else ((1.01, 1.5, 2.0, 3.0), (2.0, 600.0, 2000.0))
    tabulated = [(f"tab{n}d_d{d}", random_weight(grid(n, d), np.random.default_rng([n, d])))
                 for n, ds in depths.items() for d in ds]
    g4 = grid(1, 4)
    tabulated += [
        ("constant", StepFunction(g4, np.full(16, 3.0))),
        ("zero_cells", StepFunction(g4, np.r_[np.zeros(4), np.linspace(0.5, 4.0, 12)])),
        ("huge", StepFunction(g4, np.ldexp(np.linspace(1.0, 2.0, 16), 900))),
    ]
    for name, w in tabulated:
        yield from _constants(name, w, ps, rs, None)

    power_depths = (4,) if toy else (0, 4, 8)
    for c in CENTRES:
        for a in EXPONENTS:
            pw = PowerWeight(c, a, 0.0, 1.0)
            for d in power_depths:
                yield from _constants(f"pow_c{c!r}_a{a!r}_d{d}", pw, ps, rs, d)
            yield f"pow_c{c!r}_a{a!r}/tabulate", lambda pw=pw: pw.tabulate(3 if toy else 6)

    # the drivers: the first tabulated weights, the ties of a constant weight,
    # zero cells, values near 2^900, a 3-D weight and two power weights
    named = dict(tabulated)
    picks = tabulated[:2 if toy else 6] + [
        (name, named[name]) for name in ("constant", "zero_cells", "huge",
                                         "tab3d_d1" if toy else "tab3d_d2")]
    drivers = [(name, w, None) for name, w in picks]
    drivers += [("inverse_x", PowerWeight(0.0, -1.0, 0.0, 1.0), 4 if toy else 6),
                ("sqrt_03", PowerWeight(0.3, -0.5, 0.0, 1.0), 4 if toy else 6)]
    for name, w, d in drivers:
        n = 1 if d is not None else w.grid.n
        for p, alpha, q in ((1.5, 0.0, None), (2.0, 0.0, None), (2.0, n / 4.0, 4.0)):
            yield (f"{name}/verify/p{p}_q{q}",
                   lambda w=w, p=p, alpha=alpha, q=q, d=d:
                   verify_weight(w, p, alpha, q, seed=1, n_random=8, depth=d))
            yield (f"{name}/sufficiency/p{p}_q{q}",
                   lambda w=w, p=p, alpha=alpha, q=q, d=d:
                   sufficiency_check(w, p, alpha, q, seed=1, n_random=8, depth=d))
            yield (f"{name}/necessity/p{p}_q{q}",
                   lambda w=w, p=p, alpha=alpha, q=q, d=d: necessity_check(w, p, alpha, q, depth=d))
        for q in (None, 4.0):
            yield (f"{name}/lemmas/q{q}",
                   lambda w=w, q=q, d=d: lemma_suite(w, 2.0, q, seed=2, n_random=8, depth=d))

    # a far centre, where w's cell averages pass the float range and
    # sigma's underflow, and a q with alpha = 0, which breaks the relation
    far = PowerWeight(1e300, 2.5, 0.0, 1.0)
    yield ("far_c1e300_a2.5/verify/p2.0_qNone",
           lambda: verify_weight(far, 2.0, seed=1, n_random=8, depth=4))
    yield (f"{tabulated[0][0]}/verify/p2.0_q4.0_alpha0",
           lambda w=tabulated[0][1]: verify_weight(w, 2.0, 0.0, 4.0, seed=1, n_random=8))

    # verify at the benchmark's sizes (N = 1,024 cells), where a cube's norm
    # node can lie several halvings above numpy's 128-cell leaf
    if not toy:
        w1 = random_weight(grid(1, 10), np.random.default_rng([1, 10]))
        w2 = random_weight(grid(2, 5), np.random.default_rng([2, 5]))
        inverse_x = PowerWeight(0.0, -1.0, 0.0, 1.0)
        for name, w, alpha, q, d in (("bench1d_d10", w1, 0.0, None, None),
                                     ("bench1d_d10", w1, 0.25, 4.0, None),
                                     ("inverse_x_d10", inverse_x, 0.0, None, 10),
                                     ("bench2d_d5", w2, 0.0, None, None)):
            yield (f"{name}/verify/p2.0_q{q}",
                   lambda w=w, alpha=alpha, q=q, d=d:
                   verify_weight(w, 2.0, alpha, q, seed=7, n_random=8, depth=d))
        # lemma_suite at the benchmark's sizes, where about one 4-cell union
        # in seven falls back to one cell
        for name in ("tab1d_d8", "tab2d_d4"):
            for q in (None, 4.0):
                yield (f"{name}/lemmas_n64/q{q}",
                       lambda w=named[name], q=q: lemma_suite(w, 2.0, q, n_random=64))
        # the CLI's row writer on the 2,047 and 1,365 per_cube rows of these
        verify = ["verify", "--n-random", "8"]
        for name, w, tag, argv in (("bench1d_d10", w1, "verify", verify),
                                   ("bench2d_d5", w2, "verify", verify),
                                   ("bench1d_d10", w1, "necessity_csv",
                                    ["necessity", "--format", "csv"])):
            yield f"cli/{name}/{tag}", lambda w=w, argv=argv: _cli_on(w, argv)

    for n, d in ((1, 3), (2, 2)) if toy else ((1, 6), (1, 8), (2, 3), (3, 2)):
        for kind in ("uniform", "lognormal", "spiky"):
            rng = np.random.default_rng([n, d, len(kind)])
            f, w = random_step(grid(n, d), rng, kind), random_weight(grid(n, d), rng)
            for fractional in (False, True):
                yield (f"chain{n}d_d{d}_{kind}/{'fractional' if fractional else 'plain'}",
                       lambda f=f, w=w, fr=fractional: _chain(f, w, fr))

    for path in sorted(DATA.glob("*.weight.json")):
        name = path.name[:-len(".weight.json")]
        power = json.loads(path.read_text())["mode"] == "power"
        depth = ["--depth", "5"] if power else []
        runs = [("constants", ["--p", "1.5", "--r", "600"]), ("constants", ["--format", "csv"])]
        if not toy:
            runs += [("verify", ["--n-random", "8"]), ("lemmas", []), ("necessity", [])]
            if not power:
                runs += [("cz", []), ("maximal", [])]
        for i, (cmd, flags) in enumerate(runs):
            argv = [cmd, "--weight", str(path), *flags]
            if cmd not in ("cz", "maximal"):
                argv += depth
            yield f"cli/{name}/{cmd}_{i}", lambda argv=argv: _cli(argv)


def run_here(toy: bool):
    for call_id, call in corpus(toy):
        print(call_id, digest(call), flush=True)


def run_on(src: Path, toy: bool) -> dict[str, str]:
    """The corpus's {id: hash}, run in a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *(["--toy"] if toy else [])],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"corpus run on {src} failed:\n{proc.stderr}")
    return dict(line.split(" ") for line in proc.stdout.splitlines())


def against(rev: str, toy: bool) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = run_on(Path(tmp) / "src", toy)
    ours = run_on(ROOT / "src", toy)
    differ = [k for k in list(ours) + [k for k in theirs if k not in ours]
              if ours.get(k) != theirs.get(k)]
    for call_id in differ:
        print(call_id)
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} calls differ from {rev}",
          file=sys.stderr)
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--toy", action="store_true", help="run the small corpus")
    parser.add_argument("--against", metavar="REV", help="compare with the corpus at REV")
    args = parser.parse_args()
    if args.against:
        return against(args.against, args.toy)
    run_here(args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
