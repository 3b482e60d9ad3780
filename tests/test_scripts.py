"""Smoke test of the experiment scripts in scripts/.

They drive the harness from outside the library, so a harness change that
breaks them would not show in the unit tests.  Each runs once at toy size,
writing under pytest's tmp_path, and must exit 0 with its files written.
The parity corpus runs twice at toy size and must print the same lines.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ("sandwich_sweep.py", ["--weights", "2", "--depth", "3", "--n-random", "4"],
     ["sandwich_sweep.csv", "ratio_vs_depth.csv"]),
    ("inverse_power_experiment.py", ["--depths", "3", "4"],
     ["inverse_power_constants.csv", "inverse_power_per_cube.csv",
      "inverse_power_summary.json"]),
]


@pytest.mark.parametrize("script,args,files", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(script, args, files, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in files:
        assert (tmp_path / name).stat().st_size > 0, name


def test_parity_corpus_is_deterministic():
    # scripts/parity.py backs "no output change" claims: its toy corpus must
    # print the same lines on every run, one per call id
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / "parity.py"), "--toy"],
                           env=env, capture_output=True, text=True, timeout=300, check=False)
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert lines and all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    ids = [line.split(" ")[0] for line in lines]
    assert len(ids) == len(set(ids))
