"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts within minutes:
on a 2-vCPU VM, medians of identical corpus runs ranged from 9.5 to
14.3 s, far more than the changes the benchmark has to resolve.  Every timed
interval is therefore measured together with a fixed reference kernel,
sampled during that same interval, and reported as seconds at the
reference speed:

    corrected = measured * NOMINAL_S / (median kernel time in the interval)

The kernel is integer row arithmetic in dicts with gcd reduction, the
same kind of work as the engine's fraction-free elimination, but it
shares no code with the engine, so no change to the engine moves it.  It
allocates only two dicts per call, so collections of the engine's heap
rarely land inside it, and the median discards those that do.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import gcd

NOMINAL_S = 0.010  # about the kernel's median time where the baseline was recorded
PERIOD_S = 0.2  # sampling period during long intervals
_KEYS = tuple(range(0, 600, 3))
_ROUNDS = 80


def kernel_seconds() -> float:
    """Run the reference kernel once; its duration in seconds."""
    t0 = time.perf_counter()
    row = {k: k * 7919 + 13 for k in _KEYS}
    piv = {k: k * 104729 + 7 for k in _KEYS}
    for r in range(_ROUNDS):
        a, b = 1000003 + r, 999983 - r
        for k in _KEYS:
            row[k] = row[k] * a - piv[k] * b
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            for k in _KEYS:
                row[k] //= g
    return time.perf_counter() - t0


def correct(seconds: float, kernel_samples: list) -> float:
    """Measured seconds expressed at the reference speed."""
    return seconds * NOMINAL_S / statistics.median(kernel_samples)


class Sampler:
    """Runs the kernel every PERIOD_S of wall time, from a SIGALRM handler,
    while the block runs.  `spent` is the time the samples took, which the
    caller subtracts from the interval it measured."""

    def __enter__(self) -> "Sampler":
        self.samples = [kernel_seconds()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel_seconds())
