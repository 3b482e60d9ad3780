"""weakmax benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify_cli --seed 3 --seconds 20 --trace 0

Runs against the checkout's ``src`` (no installed package is used), with
BLAS/OpenMP pinned to one thread and one operation at a time.  Each
workload runs in a fresh worker process; set-up time is measured from
process spawn to the end of set-up, over several fresh spawns, and
reported as the median.  Every reported time is scaled to a fixed host
speed by a calibration probe timed on the same CPU (see calibrate.py);
the raw times are printed too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of the traced run.
The lines before it print every metric by name with its unit, the failed
share, and the environment (git sha, Python, numpy, nproc, CPU, seed).

``--record`` stores the outputs of the seed's instance as the reference
instead of measuring; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import INSTANCES, SIZES, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"), ("op_p75_s", "s"),
              ("peak_rss_mb", "MiB")]
TRACE_EXTRAS = [("trace.run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "none" when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--instance", str(args.seed % INSTANCES), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sizes", args.sizes,
           "--reference", str(args.reference), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker stops its CLI child on SIGTERM, then exits
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=tuple(SIZES), default="full",
                    help="toy sizes are for the benchmark's self-check")
    ap.add_argument("--reference", type=Path, default=HERE / "reference",
                    help="directory of recorded reference outputs")
    ap.add_argument("--record", action="store_true",
                    help="record this seed's instance as the reference")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weakmax" / "__init__.py").is_file():
        print(f"error: no weakmax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        _, done = run_worker(args, ["--record"], timeout=None)
        print(f"recorded {args.workload} instance {args.seed % INSTANCES}: "
              f"{done['recorded']} ops", file=sys.stderr)
        return 0
    if not gate_file(args).is_file():
        print(f"error: no reference at {gate_file(args)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    setup, setup_probes = [], []
    if not args.trace:
        # Each spawn is pinned to one CPU, taking the CPUs in turn, and is
        # scaled by a spawn probe run on that CPU just before it.
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_SPAWNS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            setup_probes.append(calibrate.spawn_probe(worker_env()))
            spawned, ready = run_worker(args, ["--setup-only"], timeout=60)
            setup.append(ready["ready"] - spawned)
        os.sched_setaffinity(0, cpus)
    remaining = WORKER_TIMEOUT_S - (time.monotonic() - started)
    _, res = run_worker(args, [], timeout=remaining)

    env = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
           "numpy": res["numpy"], "nproc": os.cpu_count(), "cpu": cpu_model(),
           "seed": args.seed, "instance": args.seed % INSTANCES, "sizes": args.sizes,
           "workload": args.workload, "trace": args.trace}
    print("# env " + json.dumps(env, sort_keys=True))
    for line in res["mismatches"]:
        print(f"# mismatch {line}")

    if args.trace:
        units = {m: unit for m, _, _, unit in LAYER_METRICS}
        units.update(TRACE_EXTRAS)
        values = res["layers"]
        note = (f"traced passes (s) {_fmt(res['traced_pass_s'])}, "
                f"untraced passes (s) {_fmt(res['pass_s'])}")
    else:
        units = dict(END_TO_END)
        values = {"setup_s": statistics.median(
            t * calibrate.NOMINAL_SPAWN_S / p for t, p in zip(setup, setup_probes))}
        values.update({m: res[m] for m in units if m != "setup_s"})
        note = (f"raw setup spawns (s) {_fmt(setup)}, spawn probes (s) {_fmt(setup_probes)}, "
                f"raw passes (s) {_fmt(res['pass_s'])}, per-op minima of {res['ops']} ops "
                f"({res['op_beyond_p75']} beyond p75), raw run_s {res['raw_run_s']:.6g} s, "
                f"pass scales {_fmt(res['scales'])}")
    print(f"# {note}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(f"{'failed_frac':40s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _fmt(values) -> str:
    return f"{len(values)} x median {statistics.median(values):.4g} [{min(values):.4g}, {max(values):.4g}]"


def gate_file(args) -> Path:
    return args.reference / f"{args.workload}.json.gz"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
