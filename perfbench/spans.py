"""Span recorder for the traced benchmark run.

The recorder wraps public weakmax functions and methods where they are
bound (including every module that re-imported a name), so no library
source changes.  Each call becomes one span (name, start, end, parent, op
id) plus a ``work`` count taken at the same boundary: cells scanned, cubes
scanned, subset checks, containment hits.  Spans live in flat typed arrays
in memory and are written once, at the end of the run.

Self time of a span is its duration minus the durations of the spans it
caused; a layer metric sums that over every span of the layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np


# ---------------------------------------------------------------- work counts

def _first_grid(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return f.grid


def _maximal_cells(args, kwargs, result):
    return _first_grid(args, kwargs).finest_count


def _weak_norm_cells(args, kwargs, result):
    grid = _first_grid(args, kwargs)
    cube = args[2] if len(args) > 2 else kwargs.get("cube")
    if cube is None:
        return grid.finest_count
    return 2 ** ((grid.depth - cube.level) * grid.n)


def _contains_hit(args, kwargs, result):
    return 1.0 if result else 0.0


def _constant_cubes(signature):
    """Cubes a constant scan evaluated: every level down to the lattice depth,
    or down to the witness level when the scan stopped early at +inf."""
    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        w = bound.arguments["w"]
        if hasattr(w, "grid"):
            n, depth = w.grid.n, w.grid.depth
        else:
            n, depth = 1, bound.arguments["depth"]
        last = result.witness.level if math.isinf(result.value) else depth
        return sum(2 ** (lev * n) for lev in range(last + 1))
    return count


def _stopping_cubes(args, kwargs, result):
    return sum(len(cubes) for cubes in result.cubes.values())


def _sparse_entries(args, kwargs, result):
    return len(result.entries)


def _subset_checks(args, kwargs, result):
    return result.context["subset_checks"]


_CONSTANTS = ("ap_constant", "a1_constant", "apq_constant", "a1q_constant",
              "rh_constant", "ap_star_constant", "apq_star_constant")


def targets():
    """(span name, owner, attribute, work function) for every wrapped name.

    ``owner`` is a module for functions and a class for methods.  Several
    attributes may share one span name; they form one layer.
    """
    from weakmax import cli, czsparse, grid, harness, lorentz, operators, weights

    out = [
        ("grid.StepFunction", grid.StepFunction, "__init__", None),
        ("grid.level_value_sums", grid, "level_value_sums", None),
        ("grid.GridSpec.contains", grid.GridSpec, "contains", _contains_hit),
        ("grid.GridSpec.cell_mask", grid.GridSpec, "cell_mask", None),
        ("operators.dyadic_maximal", operators, "dyadic_maximal", _maximal_cells),
        ("operators.level_scores", operators, "level_scores", None),
        ("operators.running_ancestor_max", operators, "running_ancestor_max", None),
        ("lorentz.weak_norm", lorentz, "weak_norm", _weak_norm_cells),
        ("weights.dual_weight", weights, "dual_weight", None),
        ("czsparse.cz_decompose", czsparse, "cz_decompose", _stopping_cubes),
        ("czsparse.build_sparse", czsparse, "build_sparse", _sparse_entries),
        ("czsparse.sparse_sum", czsparse, "sparse_sum", None),
        ("harness.multiplier_ratio", harness, "multiplier_ratio", None),
        ("harness.necessity_check", harness, "necessity_check", None),
        ("harness.sufficiency_check", harness, "sufficiency_check", None),
        ("harness.random_step", harness, "random_step", None),
        ("harness.lemma_suite", harness, "lemma_suite", _subset_checks),
        ("cli.main", cli, "main", None),
    ]
    for name in _CONSTANTS:
        fn = getattr(weights, name)
        out.append(("weights.constant", weights, name,
                    _constant_cubes(inspect.signature(fn))))
    for name in ("moment", "weak_l1", "ess_sup_inv", "tabulate"):
        out.append(("weights.PowerWeight", weights.PowerWeight, name, None))
    return out


# ------------------------------------------------------------------ recorder

class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.work = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float):
        """Append a finished top-level span measured outside a wrapper."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.op.append(self.current_op)
        self.work.append(0.0)

    def wrap(self, name: str, fn, work=None):
        nid = self.intern(name)
        rec = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec.current_op)
            rec.work.append(0.0)
            rec.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            rec.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                stack.pop()
            if work is not None:
                rec.work[i] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target where it is bound; ``uninstall`` restores them."""
        if self._restore:
            raise RuntimeError("wrappers already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "weakmax" or name.startswith("weakmax."))]
        for span_name, owner, attr, work in targets():
            original = owner.__dict__[attr]
            wrapper = self.wrap(span_name, original, work)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- persistence
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path, **extra):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays(), **extra)

    def merge(self, data, op: int):
        """Append spans saved by another process, all under op id ``op``."""
        base = len(self.start)
        ids = np.array([self.intern(str(n)) for n in data["names"]], dtype=np.int32)
        self.name_id.extend(ids[data["name_id"]].tolist())
        self.start.extend(data["start"].tolist())
        self.end.extend(data["end"].tolist())
        parent = data["parent"]
        self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
        self.op.extend([op] * len(parent))
        self.work.extend(data["work"].tolist())

    # ------------------------------------------------------------- aggregation
    def layer_totals(self, ops) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time and summed work over the
        spans whose op id is in ``ops``."""
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        keep = np.isin(a["op"], np.asarray(list(ops), dtype=np.int32))
        ids = a["name_id"][keep]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        selfs = np.bincount(ids, weights=self_time[keep], minlength=k)
        works = np.bincount(ids, weights=a["work"][keep], minlength=k)
        return {name: {"calls": float(calls[i]), "self_s": float(selfs[i]),
                       "work": float(works[i])}
                for i, name in enumerate(self.names)}


# Per-layer metrics: (metric, span name, statistic, unit).
LAYER_METRICS = [
    ("grid.StepFunction.calls", "grid.StepFunction", "calls", "count"),
    ("grid.StepFunction.self_s", "grid.StepFunction", "self_s", "s"),
    ("grid.level_value_sums.self_s", "grid.level_value_sums", "self_s", "s"),
    ("grid.GridSpec.contains.calls", "grid.GridSpec.contains", "calls", "count"),
    ("grid.GridSpec.contains.hit_ratio", "grid.GridSpec.contains", "hit_ratio", "ratio"),
    ("grid.GridSpec.cell_mask.calls", "grid.GridSpec.cell_mask", "calls", "count"),
    ("operators.dyadic_maximal.calls", "operators.dyadic_maximal", "calls", "count"),
    ("operators.dyadic_maximal.cells", "operators.dyadic_maximal", "work", "count"),
    ("operators.level_scores.self_s", "operators.level_scores", "self_s", "s"),
    ("operators.running_ancestor_max.self_s", "operators.running_ancestor_max", "self_s", "s"),
    ("lorentz.weak_norm.calls", "lorentz.weak_norm", "calls", "count"),
    ("lorentz.weak_norm.cells", "lorentz.weak_norm", "work", "count"),
    ("lorentz.weak_norm.self_s", "lorentz.weak_norm", "self_s", "s"),
    ("weights.constant.calls", "weights.constant", "calls", "count"),
    ("weights.constant.self_s", "weights.constant", "self_s", "s"),
    ("weights.cubes_scanned", "weights.constant", "work", "count"),
    ("weights.PowerWeight.calls", "weights.PowerWeight", "calls", "count"),
    ("weights.PowerWeight.self_s", "weights.PowerWeight", "self_s", "s"),
    ("weights.dual_weight.self_s", "weights.dual_weight", "self_s", "s"),
    ("czsparse.cz_decompose.self_s", "czsparse.cz_decompose", "self_s", "s"),
    ("czsparse.stopping_cubes", "czsparse.cz_decompose", "work", "count"),
    ("czsparse.build_sparse.self_s", "czsparse.build_sparse", "self_s", "s"),
    ("czsparse.sparse_entries", "czsparse.build_sparse", "work", "count"),
    ("czsparse.sparse_sum.self_s", "czsparse.sparse_sum", "self_s", "s"),
    ("harness.multiplier_ratio.calls", "harness.multiplier_ratio", "calls", "count"),
    ("harness.multiplier_ratio.self_s", "harness.multiplier_ratio", "self_s", "s"),
    ("harness.necessity_check.self_s", "harness.necessity_check", "self_s", "s"),
    ("harness.sufficiency_check.self_s", "harness.sufficiency_check", "self_s", "s"),
    ("harness.random_step.self_s", "harness.random_step", "self_s", "s"),
    ("harness.lemma_suite.self_s", "harness.lemma_suite", "self_s", "s"),
    ("harness.subset_checks", "harness.lemma_suite", "work", "count"),
    ("cli.startup_s", "cli.startup", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.output_bytes", "cli.main", "work", "bytes"),
]


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Map one pass's span totals onto the named per-layer metrics.

    A layer the pass never entered reads 0.
    """
    out = {}
    for metric, span, stat, _ in LAYER_METRICS:
        t = totals.get(span, {"calls": 0.0, "self_s": 0.0, "work": 0.0})
        if stat == "hit_ratio":
            out[metric] = t["work"] / t["calls"] if t["calls"] else 0.0
        else:
            out[metric] = t[stat]
    return out
