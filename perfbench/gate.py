"""Reference gate: every operation's flattened outputs against a reference
recorded from the same workload, instance and sizes.

Strings, booleans, integers and None must match exactly; floats must agree
to relative 1e-12 (infinities and NaN match only themselves).  A missing or
extra key is a mismatch.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-12


def reference_file(ref_dir: Path, workload: str) -> Path:
    return ref_dir / f"{workload}.json.gz"


def read(ref_dir: Path, workload: str) -> dict:
    with gzip.open(reference_file(ref_dir, workload), "rt") as fh:
        return json.load(fh)


def load(ref_dir: Path, workload: str, sizes: str, instance: int) -> list[dict]:
    doc = read(ref_dir, workload)
    if doc["workload"] != workload or doc["sizes"] != sizes:
        raise ValueError(f"reference holds {doc['workload']}/{doc['sizes']}, "
                         f"not {workload}/{sizes}")
    try:
        return doc["outputs"][str(instance)]
    except KeyError:
        raise ValueError(f"no reference recorded for instance {instance}") from None


def store(ref_dir: Path, workload: str, sizes: str, instance: int, outputs: list[dict],
          meta: dict):
    """Record one instance's outputs, keeping the instances already recorded."""
    path = reference_file(ref_dir, workload)
    doc = {"workload": workload, "sizes": sizes, "outputs": {}}
    if path.exists():
        old = read(ref_dir, workload)
        if old["sizes"] == sizes:
            doc = old
    doc.update(meta)
    doc["outputs"][str(instance)] = outputs
    doc["outputs"] = dict(sorted(doc["outputs"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-stable across re-recordings
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def _same(expected, got) -> bool:
    if isinstance(expected, float) and isinstance(got, float):
        if math.isnan(expected) or math.isnan(got):
            return math.isnan(expected) and math.isnan(got)
        if math.isinf(expected) or math.isinf(got):
            return expected == got
        return abs(expected - got) <= REL_TOL * max(abs(expected), abs(got))
    return type(expected) is type(got) and expected == got


def compare(expected: dict, got: dict) -> list[str]:
    """Human-readable mismatches between two flattened outputs (empty if equal)."""
    problems = [f"{k}: missing" for k in expected if k not in got]
    problems += [f"{k}: unexpected {got[k]!r}" for k in got if k not in expected]
    problems += [f"{k}: expected {expected[k]!r}, got {got[k]!r}"
                 for k in expected if k in got and not _same(expected[k], got[k])]
    return problems
