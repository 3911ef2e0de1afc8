"""A fixed pure-Python reference loop, and a probe that times it while a
pass runs.

The box this benchmark was built on runs the same code up to 1.8 times
slower for minutes at a time, as other tenants load the host, and within
a pass it switches between a fast and a slow state every few hundred
milliseconds (the loop takes about 4 ms or about 6.5 ms).  The loop slows
with the package's code, so the benchmark counts time in runs of the loop.
The loop does what the package does most (small objects with slots, list
and tuple building, table-free XOR adds and big-int products) but uses no
package code, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time


class _Poly:
    __slots__ = ("v", "c")

    def __init__(self, v, c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        self.v = v
        self.c = tuple(c)

    def __add__(self, other):
        out = [0] * max(len(self.c), len(other.c))
        out[:len(self.c)] = self.c
        for j, x in enumerate(other.c):
            out[j] ^= x
        return _Poly(min(self.v, other.v), out)

    def __mul__(self, other):
        a = int.from_bytes(bytes(self.c), "little")
        b = int.from_bytes(bytes(other.c), "little")
        n = len(self.c) + len(other.c)
        return _Poly(self.v + other.v,
                     [x & 1 for x in (a * b).to_bytes(n, "little")])


#: the loop's time on the 2-CPU Xeon virtual machine the bounds were set on,
#: when the host is quiet: setup_s counts set-up time in loop runs and
#: reports it in seconds at this speed
NOMINAL_S = 0.005

_RNG = random.Random(7)
_XS = [_Poly(0, [_RNG.randrange(2) for _ in range(40)]) for _ in range(24)]


def _loop():
    # with the collector on, the loop's allocations would start collections
    # whose cost is the size of the package's heap, not the loop's; the loop
    # frees what it allocates, so the next collection comes no earlier
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _Poly(0, ())
        for i, a in enumerate(_XS):
            for b in _XS[i:]:
                acc = acc + a * b
        table = {}
        for i in range(3000):
            table[i % 97, i] = _XS[i % 24]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample(n=5):
    """Times of ``n`` runs of the loop, in seconds (about 5 ms each)."""
    return [_loop() for _ in range(n)]


class Probe:
    """Runs the loop every ``period`` seconds, from a SIGALRM interval timer
    in the process being measured, so that it samples the machine's speed
    during the measured code and not only next to it.

    ``measure`` counts an interval in runs of the loop, as timed by the
    probe runs inside it.  Sampled before and after each claim instead, the
    loop caught one state per claim boundary: over 30 passes of flows-q4
    at one seed, the pass time in loop runs varied 8.5% (coefficient of
    variation) that way and 1.8% with the probe; in seconds it varied 11.5%.
    """

    MIN_RUNS = 3  # intervals with fewer runs inside use the nearest runs

    def __init__(self, period=0.1):
        self.period = period
        self.runs = []  # (start, seconds) of each probe run

    def _run(self, signum, frame):
        self.runs.append((time.perf_counter(), _loop()))

    def start(self):
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0, t1):
        """Seconds from ``t0`` to ``t1`` less the probe runs inside, and the
        same in runs of the loop: divided by the mean time of the probe runs
        inside (the mean, because the runs fall into two states)."""
        inside = [s for t, s in self.runs if t0 <= t < t1]
        seconds = t1 - t0 - sum(inside)
        if len(inside) < self.MIN_RUNS:
            mid = (t0 + t1) / 2
            inside = [s for _, s in sorted(
                self.runs, key=lambda run: abs(run[0] - mid))[:self.MIN_RUNS]]
        return seconds, seconds / statistics.mean(inside)
