"""Seconds normalised to a fixed host speed.

On a shared host the speed of the same code changes by up to 2x within
seconds as other tenants come and go, in CPU time as much as in wall
time, so neither reads steadily from run to run.  A Clock samples that
speed while it runs: every INTERVAL_S a timer signal runs a fixed
reference kernel, and the time since the previous sample is weighted by
REF_S over the kernel's duration.  `seconds` then reads as the time the
work would take at the speed where one kernel run takes REF_S; `wall` is
the plain elapsed time.  Both leave out the kernel's own runs.

The signal handler runs between bytecodes of the process's one thread;
no thread or process is started.  The kernel uses only the operations
the exact arithmetic of the program is built on (Python integers, gcd
and function calls), and nothing of the program itself, so a faster
program cannot make the kernel faster.
"""

from __future__ import annotations

import signal
import time
from math import gcd

INTERVAL_S = 0.02
# About one kernel run on an uncontended core of an Intel Xeon vCPU under
# CPython 3.11.  Any constant would do; this one makes `seconds` read
# close to the wall time on such a core when the host is quiet.
REF_S = 0.0001


def _add(n, d, a, b):
    n, d = n * b + a * d, d * b
    g = gcd(n, d)
    return n // g, d // g


def kernel():
    n, d = 0, 1
    for i in range(1, 120):
        n, d = _add(n, d, i % 7 + 1, i % 97 + 1)
    return n


def _kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Context manager measuring normalised and wall seconds."""

    def __init__(self):
        self.seconds = 0.0
        self.wall = 0.0
        self.samples = 0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        if self._busy:  # a signal that arrives during a sample joins the next gap
            return
        self._busy = True
        gap = time.perf_counter() - self._last
        self.seconds += gap * REF_S / _kernel_seconds()
        self.wall += gap
        self.samples += 1
        self._last = time.perf_counter()
        self._busy = False

    def read(self):
        """Normalised seconds so far: the gap since the last sample is
        weighted by a fresh sample, which then starts the next gap."""
        self._sample()
        return self.seconds
