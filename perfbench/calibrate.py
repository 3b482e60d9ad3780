"""Host-speed calibration: fixed probes timed beside the workload.

The shared host this benchmark was built on changes speed as a whole over
minutes: every operation, set-up included, slows or speeds up together,
by a quarter or more.  A fixed probe timed on the same CPU, next to the
work it calibrates, slows with it.  The benchmark reports times scaled by
``nominal / probe time``: seconds at the speed at which the host runs the
probe in its nominal time.

* ``probe`` is about 3 ms of interpreter loops and small numpy calls.  It
  is timed before every operation, in a process of its own
  (``ProbeProcess``), so the program's memory and allocator state cannot
  change its time.  Each pass's operation times are scaled by the
  fastest probe of that pass.
* ``spawn_probe`` starts an interpreter that imports numpy and exits, the
  start-up work of a benchmark worker without the program.  Each set-up
  spawn is scaled by one run just before it.

Neither probe runs weakmax code, so every change to the program shows in
full.  The raw times are printed beside the scaled ones.

Run as a script, this module serves probes: each line on stdin holds a
count n, and it answers with the fastest of n probe times.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# The probe's fastest time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4) in a quiet stretch, so that scaled times read as
# raw seconds there.
NOMINAL_PROBE_S = 0.0029

# The spawn probe's time there, estimated from busy stretches as its time
# divided by the probe's slowdown.
NOMINAL_SPAWN_S = 0.085

_DATA = np.linspace(1.0, 2.0, 2_000)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small numpy
    calls (~3 ms), the mix the weakmax operations are made of."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += (i * i) % 7
    for _ in range(100):
        a = np.sqrt(_DATA * 1.0001 + 1.0)
        np.cumsum(a)
        np.maximum.accumulate(a[::-1])
    return time.perf_counter() - t0


def spawn_probe(env: dict) -> float:
    """Seconds to start an interpreter that imports numpy and exits: the
    start-up work of a benchmark worker, without the program."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.monotonic() - t0


class ProbeProcess:
    """A child process that times the probe on a given CPU on request."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def fastest(self, cpu: int, repeat: int = 1) -> float:
        """The fastest of ``repeat`` probe times, pinned to ``cpu``."""
        os.sched_setaffinity(self._proc.pid, {cpu})
        self._proc.stdin.write(f"{repeat}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    for line in sys.stdin:
        print(min(probe() for _ in range(int(line))), flush=True)


if __name__ == "__main__":
    serve()
