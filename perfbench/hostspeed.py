"""Host speed, sampled while a run works, so that runs made in fast and slow
phases of a shared host report times on one scale.

On a shared virtual machine the same pure-Python work can take up to twice as
long in one minute as in the next, in phases that last from seconds to
minutes, longer than a run.  The process's CPU time slows with it, so CPU
time is no steadier than wall time.  A fixed kernel that does not call
finclone is therefore timed about ten times a second while the run works,
from a SIGALRM handler.  A sample's speed is REF_S over the kernel's
duration: 1.0 on the reference host, 0.5 when the host runs at half that
speed.

A time `t` measured while the host ran at speed `v` is reported as `t * v`,
the time the same work would take on the reference host.  The mean of the
samples' speeds over an interval is its work per second relative to the
reference, because the samples are spread evenly in wall time.  The kernel
does not touch finclone, so a change to finclone moves reported times and
leaves the speeds alone.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from time import perf_counter

# kernel duration on the reference host, a shared 2-vCPU Xeon VM under
# CPython 3.11 in a steady phase; it only sets the scale of reported times
REF_S = 0.0020
INTERVAL_S = 0.1    # seconds between samples while a run works
WINDOW_S = 0.5      # a query's speed averages the samples this close to it

# the kernel: apply a fixed binary table row-wise to pairs of 2-column
# tuples and collect the images in a bit mask, the shape of finclone's
# inner loop, on data made here and not by finclone
_TABLE = tuple((3 * a + b * b) % 3 for a in range(3) for b in range(3))
_ROWS = tuple(itertools.product(range(3), repeat=2))
_INDEX = {row: i for i, row in enumerate(_ROWS)}
_REPS = 60


def _apply(x: tuple) -> int:
    return _TABLE[3 * x[0] + x[1]]


def _kernel() -> int:
    out = 0
    for _ in range(_REPS):
        for c1 in _ROWS:
            for c2 in _ROWS:
                out |= 1 << _INDEX[(_apply((c1[0], c2[0])), _apply((c1[1], c2[1])))]
    return out


def time_kernel() -> float:
    """Seconds one kernel run takes now, with the cyclic collector held off
    so that the size of the caller's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Speed samples of one process, and the time spent taking them."""

    def __init__(self):
        self.times: list[float] = []    # when each sample started
        self.speeds: list[float] = []
        self.spent = 0.0                # seconds inside sample()

    def sample(self) -> None:
        t0 = perf_counter()
        d = time_kernel()
        self.times.append(t0)
        self.speeds.append(REF_S / d)
        self.spent += perf_counter() - t0

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Mean speed of the samples taken from WINDOW_S seconds before
        `start` to WINDOW_S seconds after `end` (all samples by default);
        the nearest sample when none falls in that window."""
        if not self.speeds:
            raise ValueError("no speed samples taken")
        if start is None:
            return statistics.fmean(self.speeds)
        window = [v for t, v in zip(self.times, self.speeds)
                  if start - WINDOW_S <= t <= end + WINDOW_S]
        if window:
            return statistics.fmean(window)
        mid = (start + end) / 2
        return min(zip(self.times, self.speeds), key=lambda tv: abs(tv[0] - mid))[1]
