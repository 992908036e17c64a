"""Machine speed probe for a shared, noisy host.

On a virtual machine that shares its cores, other tenants slow every
instruction by up to about half, in phases that can outlast a whole run.
The probe times a fixed pure-Python kernel (tuples, dict grouping, sorting,
``math.fsum``, string formatting: the kinds of work cegkit does) every
fraction of a second.  A latency measured over ``[start, end]`` is scaled by
``NOMINAL_S`` over the median kernel time near that interval, which gives
the latency on a machine that runs the kernel in ``NOMINAL_S``.  The kernel
does not touch cegkit, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

# a round figure near the kernel's time on a quiet 2.1 GHz Xeon core under
# Python 3.11 (1.7 to 2 ms); fixed, so scaled figures from different runs
# and commits compare directly
NOMINAL_S = 0.002
INTERVAL_S = 0.2
WINDOW_S = 0.5
REPEATS = 3


def kernel() -> float:
    rows = [((i * 7919) % 1009 / 1009.0, (i * 104729) % 997, f"v{i}") for i in range(2500)]
    groups: dict = {}
    for value, key, name in rows:
        groups.setdefault(key % 61, []).append((value, name))
    ordered = sorted(rows)
    labels = "".join(f"{v:.6g}" for v, _, _ in ordered[:500])
    return math.fsum(v for v, _ in groups[0]) + len(labels)


class SpeedProbe:
    """Kernel timings over a run, and the scale factor they imply."""

    def __init__(self):
        self.times: list = []  # perf_counter at each probe, increasing
        self.kernel_s: list = []  # fastest of REPEATS kernel runs at that time

    def measure(self) -> None:
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.kernel_s.append(best)

    def maybe_measure(self) -> None:
        """Probe unless the last probe is more recent than INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of the interval."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.kernel_s[lo:hi]
        if not window:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            window = [self.kernel_s[nearest]]
        return NOMINAL_S / statistics.median(window)
