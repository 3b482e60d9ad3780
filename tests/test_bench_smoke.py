"""Smoke test of the benchmark's hold on the library.

The benchmark in perfbench/ wraps weakmax names by (owner, attribute) and
builds its workloads from the public API; a rename there would only show
when the benchmark runs.  This test resolves every wrapped name and runs
every workload op once at the "toy" size, untraced, with its inputs written
under pytest's tmp_path.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_span_targets_resolve():
    for name, owner, attribute, _ in spans.targets():
        assert callable(getattr(owner, attribute, None)), f"{name}: {owner!r}.{attribute}"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_ops_run(workload, tmp_path, monkeypatch):
    # CLI ops start `python -m weakmax.cli` in the repo root; point it at src/.
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src") + (os.pathsep + path if path else ""))
    ops = workloads.build(workload, 0, "toy", ROOT, tmp_path)
    assert ops
    for op in ops:
        out = op.run(None)
        assert out, op.label
        if "exit_code" in out:
            assert out["exit_code"] in (0, 2), (op.label, out)
            assert "stdout" not in out, f"{op.label}: output is not JSON"
