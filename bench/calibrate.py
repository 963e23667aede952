"""Host-speed calibration of the end-to-end timings.

The benchmark runs on a few cores of a host shared with other tenants,
whose load changes the speed of every process on it by 10-40% over
minutes, so raw times of the same code spread more between runs than a
regression bound can tolerate.  A fixed reference kernel (a Python loop,
a real FFT, an incomplete gamma and a pass over an 8 MB array: the kinds of
work the package does, but none of its code) runs between the commands of
every timed pass and takes about a tenth of the pass's time.  It runs in
the benchmark's main thread only: a second copy in a thread of its own
(for the two-thread workload) followed that workload no better, and its
allocations raised the process's peak memory, which is a metric.

Each kernel time is stored as a slowdown: its ratio to the kernel's
median on the reference host (REF_S).  Each command's latency is divided
by the median slowdown of the kernel runs nearest it, so the end-to-end
timings read as seconds on that host.  The package never runs inside the
kernel: a change to the package moves the timings, not the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import gammainc

# Median kernel time on the reference host (bench/baseline.json, "hardware").
REF_S = 2.0e-3
SHARE = 0.1  # kernel time per unit of command time
MIN_SAMPLES = 32  # kernel runs behind each command's scale

_X = np.random.default_rng(0).random(1 << 13)
_BIG = np.random.default_rng(1).random(1 << 20)


def kernel() -> float:
    """Run the reference kernel once; returns its wall time."""
    t0 = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i
    np.fft.irfft(np.fft.rfft(_X) ** 2)
    gammainc(1.5, 3.0 * _X[:4096])
    float(_BIG.sum())
    return time.perf_counter() - t0


def sample(busy_s: float, out: list) -> None:
    """Run the kernel for about SHARE of busy_s (at least once), appending each slowdown to out.

    A first, untimed run brings the kernel's data back into cache, so its
    times do not depend on how much of the cache the last command used.
    """
    kernel()
    spent = 0.0
    while spent <= SHARE * busy_s:
        t = kernel()
        out.append(t / REF_S)
        spent += t


def local_slowdowns(per_command: list) -> list:
    """Slowdown at each command of a pass, from the kernel runs nearest it in time.

    per_command[i] holds the slowdowns sampled right after command i.  A
    command's own runs are widened to those of the commands around it until
    there are MIN_SAMPLES, so a long command is scaled by the host's speed
    around it and a short one does not rest on one or two runs.
    """
    n = len(per_command)
    out = []
    for i in range(n):
        r = 0
        while True:
            window = [t for j in range(max(0, i - r), min(n, i + r + 1)) for t in per_command[j]]
            if len(window) >= MIN_SAMPLES or r >= n:
                break
            r += 1
        out.append(statistics.median(window))
    return out
