"""Machine-speed gauge: timings scaled to a fixed machine speed.

On a shared host the same code runs up to 1.8x slower for seconds, and
sometimes for a whole run, at a time, while CPU time tracks wall time (the
thread is slowed, not descheduled). Raw wall times of two runs of the same
code then differ by more than the changes the benchmark should show. So the
benchmark times a fixed reference task, independent of the library, every
TICK_S seconds while it measures, and reports each duration without the
samples taken inside it and scaled by `NOMINAL_S / mean(samples inside it
and next to it)`: the time the work would take on a machine where the
reference takes `NOMINAL_S`. A change to the library moves the work and not
the reference, so it shows in full; a slow period of the host slows both
and cancels out.

The samples are taken from a SIGALRM handler, so they fall between the
library's own Python operations without any hook in the library. The
reference mixes the kinds of work the step kernel and the rollout do (a
host slowdown does not slow them all alike): 3x3 LAPACK calls, small-array
creation and products, scalar scipy special functions, object allocation
and interpreted float arithmetic. It runs with the cyclic garbage collector
paused, so that a collection of the library's objects is never charged to
it; the collection happens at the library's next allocation instead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import special

# The reference's duration on the machine the benchmark was calibrated on
# (2 vCPUs of a shared Intel Xeon host, numpy with one BLAS thread).
NOMINAL_S = 1.8e-3
TICK_S = 0.03
# samples on each side of a stretch of work that join those inside it in
# its scale; one sample alone varies by a quarter
NEIGHBOURS = 6

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
_B = np.array([1.0, 2.0, 3.0])
_S = np.array([[1.9, -0.95], [1.0, 0.0]])
_E = np.array([1.0, 0.0])


def _transition(z, u: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return _S @ z + _E * (0.1 * z[0] - 0.2 * z[0] ** 3 + 0.5 * u)


def reference_task() -> float:
    """A fixed amount of mixed work; returns a checksum."""
    x = _B
    for _ in range(25):
        x = np.linalg.inv(_A + 1e-3 * np.outer(x, x)) @ _B
    y, p = np.array([1.0, 2.0]), np.eye(2)
    for _ in range(30):
        z = p @ y
        p = p + 1e-6 * np.outer(z, z)
        y = np.array([0.5 * float(z[0]), 0.5 * float(z[1]) + 1.0])
    for i in range(60):
        y = _transition(y * 1e-2, 1e-3 * (i % 7))
    total = float(x @ x) + float(y @ y)
    for i in range(300):
        total += float(special.digamma(1.0 + i * 1e-3)) + float(special.gammaln(2.0 + i * 1e-3))
    table = {i: (i, float(i), [i]) for i in range(500)}
    total += sum(v[1] for v in table.values())
    for i in range(2000):
        total += (i * 0.5) % 7.0
    return total


@dataclass
class Region:
    """The wall-clock bounds of one measured stretch of work."""

    start: float = 0.0
    end: float = 0.0


@contextmanager
def region():
    """Record the wall-clock bounds of the block."""
    bounds = Region(start=time.perf_counter())
    yield bounds
    bounds.end = time.perf_counter()


class Gauge:
    """Reference samples (start time and duration), in the order taken."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._busy = False

    def sample(self, count: int = 1) -> float:
        """Time `count` runs of the reference task, record each and return
        their mean duration."""
        enabled = gc.isenabled()
        gc.disable()
        self._busy = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_task()
                self.starts.append(start)
                self.durations.append(time.perf_counter() - start)
        finally:
            self._busy = False
            if enabled:
                gc.enable()
        return statistics.fmean(self.durations[-count:])

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample()

    @contextmanager
    def ticking(self, period: float = TICK_S):
        """Take a sample every `period` seconds of wall time in the block,
        and NEIGHBOURS samples as it opens and as it closes, so that every
        region inside it has samples next to it."""
        self.sample(NEIGHBOURS)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample(NEIGHBOURS)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.starts), np.array(self.durations)

    def raw_s(self, region: Region) -> float:
        """Wall time of the region without the samples taken inside it."""
        starts, durations = self._arrays()
        lo, hi = np.searchsorted(starts, [region.start, region.end])
        return region.end - region.start - float(durations[lo:hi].sum())

    def scaled_s(self, region: Region) -> float:
        """The region's time at the nominal speed."""
        starts, durations = self._arrays()
        lo, hi = np.searchsorted(starts, [region.start, region.end])
        context = durations[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        return self.raw_s(region) * NOMINAL_S / float(context.mean())

    def scaled_latencies(self, stamps) -> np.ndarray:
        """Latencies between consecutive timestamps, each at the nominal
        speed of the samples nearest to it. Intervals that hold a sample
        are left out: taking it evicts the work's caches, which costs the
        rest of the interval a quarter of its time."""
        stamps = np.asarray(stamps)
        starts, durations = self._arrays()
        latency = np.diff(stamps)
        inside = (starts >= stamps[0]) & (starts < stamps[-1])
        undisturbed = np.ones(latency.size, dtype=bool)
        undisturbed[np.searchsorted(stamps, starts[inside], "right") - 1] = False
        nearest = np.searchsorted(starts, stamps[:-1])
        lo = np.clip(nearest - NEIGHBOURS, 0, starts.size)
        hi = np.clip(nearest + NEIGHBOURS, 0, starts.size)
        cumulative = np.concatenate([[0.0], np.cumsum(durations)])
        speed = (cumulative[hi] - cumulative[lo]) / (hi - lo)
        return (latency * NOMINAL_S / speed)[undisturbed]
