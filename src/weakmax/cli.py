"""Command-line front end: weight constants, maximal functions, CZ/sparse
decompositions, lemma suites, and the two-sided verification harness.

Exit codes: 0 all verdicts pass, 1 usage, parse or input error, 2
verification failure.  Output is deterministic for a fixed (flags, seed)
pair: reports carry no timestamps and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import czsparse, harness, weights
from .grid import StepFunction
from .operators import MaximalQuery, dyadic_maximal
from .weights import weight_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 2 for
    # verification failures, so usage errors must exit 1.
    def error(self, message):
        raise CliError(message)


def _load_weight(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read weight file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"weight file {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    try:
        return weight_from_dict(data)
    except KeyError as exc:
        raise CliError(f"weight file {path}: missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise CliError(f"weight file {path}: {exc}")


def _require_step(w, flag="--weight"):
    if not isinstance(w, StepFunction):
        raise CliError(f"{flag} must hold a tabulated step function for this command")
    return w


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_float(x: float) -> str:
    """x as ``json`` writes a float."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    return "-Infinity" if x == -math.inf else float.__repr__(x)


def _cube_rows(rows: list, indent: str) -> str | None:
    """The JSON of a list of per_cube rows ({"index", "level", "ratio"}) as
    ``json.dumps(rows, sort_keys=True, indent=2)`` writes it below a key
    indented by ``indent``; None if a row has any other shape."""
    i2, i4, i6 = indent + "  ", indent + "    ", indent + "      "
    head, comma = f"{i2}{{\n{i4}\"index\": [\n{i6}", f",\n{i6}"
    level, ratio, tail = f"\n{i4}],\n{i4}\"level\": ", f",\n{i4}\"ratio\": ", f"\n{i2}}}"
    parts = []
    for row in rows:
        if not (type(row) is dict and row.keys() == {"index", "level", "ratio"}):
            return None
        index, lev, r = row["index"], row["level"], row["ratio"]
        if not (type(index) is list and index and all(type(i) is int for i in index)
                and type(lev) is int and isinstance(r, float)):
            return None
        parts.append(head + comma.join(map(int.__repr__, index)) + level + int.__repr__(lev)
                     + ratio + _json_float(r) + tail)
    return "[\n" + ",\n".join(parts) + f"\n{indent}]"


_ROWS_AT = "@weakmax-per-cube-{}@"  # a per_cube list's place in the dump of the rest


def _to_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for
    byte.  The stdlib's indented dump runs its pure-Python encoder, and a
    report's per_cube rows are most of its bytes; so each non-empty per_cube
    list of a dict, or of a dict within it, is written by ``_cube_rows``, one
    string template per row, and spliced into the dump of the rest.  A row
    of another shape, or a placeholder that the rest already holds, leaves
    the whole object to the stdlib."""
    lists = []

    def swap(d: dict) -> dict:
        out = {}
        for key, value in d.items():
            if key == "per_cube" and type(value) is list and value:
                lists.append(value)
                value = _ROWS_AT.format(len(lists) - 1)
            elif type(value) is dict:
                value = swap(value)
            out[key] = value
        return out

    text = json.dumps(swap(obj) if type(obj) is dict else obj, sort_keys=True, indent=2) + "\n"
    for i, rows in enumerate(lists):
        mark = f'"{_ROWS_AT.format(i)}"'
        at = text.find(mark)
        line = text[text.rfind("\n", 0, at) + 1:at]
        rendered = _cube_rows(rows, line[:len(line) - len(line.lstrip(" "))])
        if rendered is None or text.count(mark) != 1:
            return json.dumps(obj, sort_keys=True, indent=2) + "\n"
        text = text[:at] + rendered + text[at + len(mark):]
    return text


def _to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _flat_witness(d: dict | None) -> tuple:
    if not d:
        return ("", "")
    return (d["level"], " ".join(str(i) for i in d["index"]))


def cmd_constants(args) -> int:
    w = _load_weight(args.weight)
    p, q, r = args.p, args.q if args.q is not None else 2.0 * args.p, args.r
    depth = args.depth
    star_plain = weights.star_constant(w, p, depth=depth)
    star_frac = weights.star_constant(w, p, q, depth=depth)
    out = [
        weights.ap_constant(w, p, depth=depth).to_dict(),
        weights.a1_constant(w, depth=depth).to_dict(),
        weights.apq_constant(w, p, q, depth=depth).to_dict(),
        weights.a1q_constant(w, q, depth=depth).to_dict(),
        weights.rh_constant(w, r, depth=depth).to_dict(),
        star_plain.to_dict(),
        star_frac.to_dict(),
    ]
    for tag, star in (("sigma_rh", star_plain), ("sigma_rh_fractional", star_frac)):
        c, rh = weights.sigma_rh(star)
        out.append({"class": tag, "p": p, "q": star.q, "r": None,
                    "value": rh, "witness": None, "c": c})
    if args.format == "csv":
        rows = []
        for d in out:
            lev, idx = _flat_witness(d.get("witness"))
            rows.append({"class": d["class"], "p": d["p"], "q": d["q"], "r": d["r"],
                         "value": d["value"], "witness_level": lev, "witness_index": idx})
        _emit(_to_csv(rows), args.output)
    else:
        _emit(_to_json(out), args.output)
    return EXIT_OK


def cmd_maximal(args) -> int:
    f = _require_step(_load_weight(args.weight))
    weight = None
    if args.with_weight:
        weight = _require_step(_load_weight(args.with_weight), "--with-weight")
    result = dyadic_maximal(f, MaximalQuery(args.alpha, weight))
    _emit(_to_json(result.to_dict()), args.output)
    return EXIT_OK


def cmd_cz(args) -> int:
    f = _require_step(_load_weight(args.weight))
    dec = czsparse.cz_decompose(f, a=args.a, alpha=args.alpha)
    family = czsparse.build_sparse(dec)
    payload = {
        "a": dec.a,
        "alpha": dec.alpha,
        "k_min": dec.k_min,
        "k_max": dec.k_max,
        "omega_measure": {str(k): dec.omega_measure(k)
                          for k in range(dec.k_min, dec.k_max + 1)},
        "entries": family.to_json_list(),
    }
    if args.format == "csv":
        rows = []
        for e in payload["entries"]:
            lev, idx = _flat_witness(e["Q"])
            rows.append({"k": e["k"], "j": e["j"], "Q_level": lev, "Q_index": idx,
                         "E_cells": " ".join(str(c) for c in e["E_cells"])})
        _emit(_to_csv(rows), args.output)
    else:
        _emit(_to_json(payload), args.output)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    w = _load_weight(args.weight)
    report = harness.lemma_suite(w, args.p, args.q, seed=args.seed, depth=args.depth)
    _emit(_to_json(report.to_dict()), args.output)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    w = _load_weight(args.weight)
    result = harness.verify_weight(w, args.p, args.alpha, args.q,
                                   c_desk=args.c_desk, seed=args.seed,
                                   n_random=args.n_random, depth=args.depth)
    if args.format == "csv":
        suf, nec = result["sufficiency"], result["necessity"]
        row = {
            "p": args.p, "q": args.q, "alpha": args.alpha,
            "depth": suf["context"]["depth"], "seed": args.seed,
            "necessity_measured": nec["measured_ratio"],
            "necessity_bound": nec["theoretical_bound"],
            "sufficiency_measured": suf["measured_ratio"],
            "sufficiency_bound": suf["theoretical_bound"],
            "normalized": suf["normalized"], "c_desk": args.c_desk,
            "verdict": result["verdict"],
        }
        _emit(_to_csv([row]), args.output)
    else:
        _emit(_to_json(result), args.output)
    return EXIT_OK if result["verdict"] else EXIT_VERIFICATION


def cmd_necessity(args) -> int:
    w = _load_weight(args.weight)
    report = harness.necessity_check(w, args.p, args.alpha, args.q, depth=args.depth)
    if args.format == "csv":
        rows = [{"level": r["level"],
                 "index": " ".join(str(i) for i in r["index"]),
                 "ratio": r["ratio"]} for r in report.per_cube]
        _emit(_to_csv(rows), args.output)
    else:
        _emit(_to_json(report.to_dict()), args.output)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


# Each command's settable flags besides --weight and --output, which every
# command takes; a flag a command does not read is an argparse usage error.
_FLAGS = {
    "p": dict(type=float, default=2.0),
    "q": dict(type=float, default=None),
    "alpha": dict(type=float, default=0.0, help="fractional order in [0, n)"),
    "depth": dict(type=int, default=None, help="lattice depth (required for power weights)"),
    "seed": dict(type=int, default=0),
    "format": dict(choices=("json", "csv"), default="json"),
    "r": dict(type=float, default=2.0, help="reverse-Hoelder exponent"),
    "with-weight": dict(default=None, help="weight file; selects the weighted operator"),
    "a": dict(type=float, default=None, help="level-set base (default 2^(n+1-alpha))"),
    "c-desk": dict(type=float, default=8.0,
                   help="absolute-constant allowance for the sufficiency verdict"),
    "n-random": dict(type=int, default=200),
}

_COMMANDS = (
    ("constants", cmd_constants, "all weight-class constants", "p q depth r format"),
    ("maximal", cmd_maximal, "evaluate a dyadic maximal operator", "alpha with-weight"),
    ("cz", cmd_cz, "CZ decomposition and sparse family", "alpha a format"),
    ("lemmas", cmd_lemmas, "reverse-Hoelder lemma suites", "p q depth seed"),
    ("verify", cmd_verify, "necessity + sufficiency sandwich",
     "p q alpha depth seed format c-desk n-random"),
    ("necessity", cmd_necessity, "test-function lower bound", "p q alpha depth format"),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="weakmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--weight", required=True, help="weight/function spec JSON file")
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except czsparse.SparsityError as exc:
        # a failed certificate is a verification failure, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (CliError, RuntimeError, ValueError) as exc:
        # the RuntimeError left (SparsityError is caught above) is
        # cz_decompose's bug check that its stopping cubes tile each level set
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
