"""One workload in one fresh process: set up, run timed passes, gate outputs.

Started by run.py, which pins BLAS/OpenMP threads and points PYTHONPATH at
the checkout's ``src``.  Prints one JSON line on stdout:

* ``--setup-only``: the monotonic time at which set-up finished;
* ``--record``: runs one untraced pass and stores it as the reference;
* otherwise: pass timings, gate results and (``--trace 1``) per-layer
  numbers from alternating untraced and traced passes.

A pass is the workload's fixed operation list, run one operation at a time
(closed loop, one client).  Passes repeat until ``--seconds`` have elapsed;
``measure`` says how the last one ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import gate
import workloads
from spans import SpanRecorder, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_MISMATCHES = 5
# Probes timed per pass, at least; spread over the ops, one call before each.
PROBES_PER_PASS = 12


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--instance", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sizes", choices=tuple(workloads.SIZES), required=True)
    ap.add_argument("--reference", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def _check_import():
    import weakmax

    src = (ROOT / "src").resolve()
    if src not in Path(weakmax.__file__).resolve().parents:
        raise SystemExit(f"weakmax imported from {weakmax.__file__}, not from {src}")


def run_pass(ops, probe=None, tracer=None, first_op=0, deadline=None):
    """Run the ops in order; returns (outputs, per-op seconds, pass seconds,
    probe seconds).  Pass seconds are the sum of the ops' own times.

    ``probe``, if given, times the calibration probe; it is called before
    each op, outside the op's time.  No op starts once ``deadline`` (a
    perf_counter time) has passed, so a pass given one may end after fewer
    ops than the workload has.
    """
    outputs, times, probes = [], [], []
    spent = 0.0
    for j, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if probe is not None:
            probes.append(probe())
        if tracer is not None:
            tracer.current_op = first_op + j
        t0 = time.perf_counter()
        try:
            out = op.run(tracer)
        except Exception as exc:  # an unexpected error fails the op, not the run
            out = {"unexpected_error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        outputs.append(out)
    return outputs, times, spent, probes


def op_seconds(passes, n_ops: int) -> list[float]:
    """Each operation's fastest wall time across passes.

    Interference from the host only ever adds time, and on a shared host it
    comes in bursts lasting seconds to minutes, so the minimum over passes
    tracks the code's own cost far more steadily than the median does.
    """
    samples = [[] for _ in range(n_ops)]
    for _, times, _ in passes:
        for j, t in enumerate(times):
            samples[j].append(t)
    return [min(s) for s in samples]


def measure(ops, expected, seconds: float, trace: bool, workload: str, prober):
    recorder = SpanRecorder() if trace else None
    untraced, traced = [], []  # (pass seconds, per-op seconds, first op id)
    scaled = []  # untraced passes again, times scaled by the pass's fastest probe
    factors = []
    probe_repeat = -(-PROBES_PER_PASS // len(ops))
    attempted = failed = 0
    mismatches: list[str] = []
    # Each pass runs pinned to one CPU, taking the allowed CPUs in turn (CLI
    # children inherit the pin).  On a shared host each vCPU has slow spells
    # of its own, lasting up to minutes, so drawing every operation's samples
    # from all of them lets its fastest pass escape a spell on one.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        tracing = trace and k % 2 == 1
        first_op = k * len(ops)
        cpu = cpus[(k // (2 if trace else 1)) % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        # An untraced run spends its whole time on samples: after two whole
        # passes, ops start until the deadline and the last pass may stop
        # part-way.  Traced passes stay whole, since layers are per pass.
        cut = deadline if not trace and k >= 2 else None
        if tracing:
            recorder.install()
        try:
            outputs, times, total, pass_probes = run_pass(
                ops, lambda: prober.fastest(cpu, probe_repeat), recorder if tracing else None,
                first_op, cut)
        finally:
            if tracing:
                recorder.uninstall()
        (traced if tracing else untraced).append((total, times, first_op))
        if not tracing and times:
            # Each pass is scaled by its own probes, so a run that the host's
            # speed changes under is scaled where it was slow.
            factors.append(calibrate.NOMINAL_PROBE_S / min(pass_probes))
            scaled.append((total * factors[-1], [t * factors[-1] for t in times], first_op))
        for op, want, got in zip(ops, expected, outputs):
            attempted += 1
            problems = gate.compare(want, got)
            if problems:
                failed += 1
                if len(mismatches) < MAX_REPORTED_MISMATCHES:
                    mismatches.append(f"pass {k} op {op.label}: " + "; ".join(problems[:3]))
        k += 1
        # Two passes at least: one per CPU, or traced and not.  A traced run
        # starts another pass only if, judged by the last one, it ends by the
        # deadline on average, so it too measures about `seconds`.
        slack = total / 2 if trace else 0.0
        if k >= 2 and (len(times) < len(ops) or time.perf_counter() + slack >= deadline):
            break
    os.sched_setaffinity(0, cpus)

    who = resource.RUSAGE_CHILDREN if workload == "verify_cli" else resource.RUSAGE_SELF
    raw = op_seconds(untraced, len(ops))
    per_op = op_seconds(scaled, len(ops))
    p75 = statistics.quantiles(per_op, n=4)[2] if len(per_op) > 1 else per_op[0]
    result = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "pass_s": [t for t, times, _ in untraced if len(times) == len(ops)],
        "ops": len(per_op),
        "run_s": sum(per_op),
        "raw_run_s": sum(raw),
        "scales": factors,
        "op_p50_s": statistics.median(per_op),
        "op_p75_s": p75,
        "op_beyond_p75": sum(t > p75 for t in per_op),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if trace:
        per_pass = [layer_metrics(recorder.layer_totals(range(first, first + len(ops))))
                    for _, _, first in traced]
        layers = {name: min(p[name] for p in per_pass) for name in per_pass[0]}
        traced_run = sum(op_seconds(traced, len(ops)))
        layers["trace.run_s"] = traced_run
        layers["trace.overhead_s"] = traced_run - result["raw_run_s"]
        layers["trace.spans"] = len(recorder) / len(traced)
        result["traced_pass_s"] = [t for t, _, _ in traced]
        result["layers"] = layers
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.save(out_dir / f"spans-{workload}.npz")
    return result


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills a running CLI child.
    raise SystemExit(1)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    _check_import()
    workdir = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.instance, args.sizes, ROOT, workdir)
        if args.record:
            outputs, _, _, _ = run_pass(ops)
            bad = [op.label for op, out in zip(ops, outputs) if "unexpected_error" in out]
            if bad:
                raise SystemExit(f"refusing to record unexpected errors in {bad}")
            from run import git_sha
            gate.store(args.reference, args.workload, args.sizes, args.instance, outputs,
                       {"instances": workloads.INSTANCES, "commit": git_sha(ROOT)})
            print(json.dumps({"recorded": len(outputs)}))
            return 0
        expected = gate.load(args.reference, args.workload, args.sizes, args.instance)
        if len(expected) != len(ops):
            raise SystemExit(f"reference has {len(expected)} ops, workload has {len(ops)}")
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        with calibrate.ProbeProcess() as prober:
            result = measure(ops, expected, args.seconds, bool(args.trace), args.workload,
                             prober)
        result.update(ready=ready, numpy=np.__version__)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
