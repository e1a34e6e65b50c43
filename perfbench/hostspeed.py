"""The host's speed over time, sampled while the benchmark measures.

Other tenants of a shared host slow its cores down in spells. On a 2-vCPU
Intel Xeon host a short fixed kernel took either about 5.5 or about 9.3 ms,
switching every second or so on both cores alike, and whole 30-second
windows differed by 22-37% in their median scene time. A run's median wall
time moves with the spells it happens to meet.

While it runs, a Sampler runs a short fixed probe from a SIGALRM handler
every INTERVAL_S seconds and keeps when each probe started and how long it
took. An interval's wall time, less the probes run inside it, is scaled by
REF_PROBE_S over the mean probe time inside it, raised to SLOWDOWN_EXP, so a
time is reported at one fixed reference speed of the host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# the probe's time on an otherwise idle core of the 2-vCPU Intel Xeon host
# this benchmark was defined on; it sets the scale of a time, not its spread
REF_PROBE_S = 0.00025
# a spell that slows the probe by a factor f slows the closed loop by about
# f ** SLOWDOWN_EXP. Over 100-150 s of repeated calls on that host, scaled
# single calls spread least at 1.25: 4.5% on large256 and 6.4% on
# many_regions, against 5.2% and 7.3% at 1.0, 4.9% and 6.8% at 1.5, and
# 11-14% unscaled
SLOWDOWN_EXP = 1.25

_VECTORS = np.random.default_rng(0).random((64, 3))
_BLOCK = np.random.default_rng(1).random(4096)


def probe() -> None:
    """A fixed mix of the kinds of work the closed loop does: a pure-Python
    loop over a dict, small numpy calls made from a Python loop, and a sort."""
    acc, table = 0, {}
    for i in range(1000):
        acc += i * i
        table[i & 255] = acc
    for i in range(50):
        float(np.linalg.norm(_VECTORS[i % 64] - _VECTORS[(i * 7) % 64]))
    np.sort(_BLOCK)


class Sampler:
    """Times `probe` every INTERVAL_S seconds between start() and stop().

    The handler runs in the main thread between two bytecodes of the program,
    so a probe falls inside the timed calls, never inside a C call; at_ref
    takes its time back out.
    """

    def __init__(self):
        self.starts = []  # perf_counter at each probe's start, ascending
        self.lengths = []  # seconds each probe took
        self._old = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.lengths.append(perf_counter() - t0)
        self.starts.append(t0)

    def start(self):
        for _ in range(3):  # the first calls pay numpy's lazy set-up
            probe()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def at_ref(self, t0: float, t1: float) -> float:
        """Seconds from perf_counter t0 to t1, less the probes run in between,
        at the reference speed. An interval holding fewer than two probes is
        scaled by the nearest probe on each side as well."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.lengths[lo:hi]
        near = inside if len(inside) >= 2 else self.lengths[max(lo - 1, 0) : hi + 1]
        slowdown = statistics.fmean(near) / REF_PROBE_S
        return (t1 - t0 - sum(inside)) / slowdown**SLOWDOWN_EXP
