"""A clock that factors out how fast the machine happens to run right now.

On a shared host the same pure-Python loop can take 1.7 times longer for
seconds at a time while neighbours load the CPU, and plain wall times then
spread far beyond any useful bound.  `SpeedProbe` times a fixed snippet of
Fraction arithmetic every PERIOD seconds from a SIGALRM handler (the pass
stays single-threaded).  `normalized(a, b)` divides each slice of [a, b)
between two probes by the slowdown the probes measured around it, relative
to REF_SNIPPET_S, and leaves out the time spent in the probes themselves.
The result is in seconds at the reference speed: on an idle machine where
the snippet costs REF_SNIPPET_S it equals the plain wall time.
"""

from __future__ import annotations

import array
import bisect
import signal
import time
from fractions import Fraction

PERIOD = 0.005
# the snippet's cost when uncontended on a 2-vCPU x86-64 host with CPython
# 3.11.7; under load the same host takes about 40 us
REF_SNIPPET_S = 23.5e-6


def _snippet() -> Fraction:
    total = Fraction(0)
    for k in range(1, 13):
        total += Fraction(k, k + 1)
    return total


class SpeedProbe:
    def __init__(self):
        self.at = array.array("d")
        self.cost = array.array("d")
        self.spent = array.array("d")

    def _probe(self, signum, frame) -> None:
        # the first run warms the caches the interrupted code left cold;
        # only the second is timed
        t0 = time.perf_counter()
        _snippet()
        t1 = time.perf_counter()
        _snippet()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.cost.append(t2 - t1)
        self.spent.append(t2 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _slowdown(self, k: int) -> float:
        """Median snippet cost of probes k-1..k+1 over the reference cost."""
        lo, hi = max(k - 1, 0), min(k + 2, len(self.cost))
        costs = sorted(self.cost[lo:hi])
        return costs[len(costs) // 2] / REF_SNIPPET_S

    def normalized(self, a: float, b: float) -> float:
        """Seconds the span [a, b) takes at the reference speed."""
        if not self.at:
            return b - a
        first = bisect.bisect_left(self.at, a)
        last = bisect.bisect_left(self.at, b)
        # slice before the first probe inside the span: the nearest probe rates it
        edge = min(first, len(self.at) - 1)
        end = self.at[first] if first < last else b
        total = (end - a) / self._slowdown(edge)
        for k in range(first, last):
            start = self.at[k] + self.spent[k]
            stop = self.at[k + 1] if k + 1 < last else b
            total += max(stop - start, 0.0) / self._slowdown(k)
        return total
