"""Self-check of the benchmark at toy sizes.

Every workload records a toy reference, then passes its gate untraced and
traced with the full metric set; a perturbed reference fails the gate; and
a directory without the weakmax sources makes the benchmark exit non-zero
without a result.  Run with ``python -m pytest perfbench/tests``.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import END_TO_END, TRACE_EXTRAS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def bench(*args, run=BENCH / "run.py"):
    cmd = [sys.executable, str(run), "--sizes", "toy", "--seed", str(SEED),
           "--seconds", "0.2", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    ref = tmp_path_factory.mktemp("reference")
    for workload in WORKLOADS:
        proc = bench("--workload", workload, "--record", "--reference", str(ref))
        assert proc.returncode == 0, proc.stderr
    return ref


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_gate(reference, workload, trace):
    res = result(bench("--workload", workload, "--trace", str(trace),
                       "--reference", str(reference)))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    if trace:
        expected = {m[0] for m in LAYER_METRICS} | {m for m, _ in TRACE_EXTRAS}
    else:
        expected = {m for m, _ in END_TO_END}
        assert all(res["metrics"][m]["value"] > 0 for m in expected)
    assert set(res["metrics"]) == expected


def _perturb(doc, exact):
    """Change the first float leaf by a relative 1e-9, or (exact) the first
    boolean or string leaf, of the first recorded operation."""
    op = next(iter(doc["outputs"].values()))[0]
    for key, value in op.items():
        if exact and isinstance(value, bool):
            op[key] = not value
            return key
        if exact and isinstance(value, str):
            op[key] = value + "?"
            return key
        if not exact and isinstance(value, float) and value != 0.0 and abs(value) < 1e300:
            op[key] = value * (1.0 + 1e-9)
            return key
    raise AssertionError("no leaf to perturb")


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_rejects_perturbed_reference(reference, tmp_path, workload, exact):
    shutil.copytree(reference, tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{workload}.json.gz"
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    key = _perturb(doc, exact)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    proc = bench("--workload", workload, "--reference", str(tmp_path))
    res = result(proc)
    assert res["correct"] is False
    assert res["failed"] >= 1
    assert key in proc.stdout


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "lemmas", run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
