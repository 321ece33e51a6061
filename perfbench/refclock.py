"""Wall time converted to reference seconds.

The benchmark's host is shared. Other tenants slow it by 20-70% for
seconds to minutes at a time, and a slow stretch can cover a whole run, so
no statistic taken inside one run removes it. Such slowdowns hit numpy
BLAS calls, elementwise numpy and plain Python code alike. A fixed probe
that mixes the three, run between units of measured work, therefore tracks
the machine's momentary speed: dividing a unit's wall time by the probe's
slowdown at both ends of the unit gives its time on the machine at its
nominal speed.

That holds as far as the code slows as much as the probe. Code that is
more memory-bound than the probe slows more under contention, so on a
contended host its figures still read somewhat slow, by an amount that
depends on how memory-bound the code is. No constant fitted to today's code
corrects for that; each run keeps the wall-clock figures beside the
reference ones.
"""

from __future__ import annotations

import time

import numpy as np

# probe duration on the reference machine (2-core Xeon, numpy 2.4 with
# OpenBLAS 0.3.31, one BLAS thread) when nothing else was running; it only
# sets the unit, so reference seconds stay comparable between commits
PROBE_NOMINAL_S = 3.6e-3


class RefClock:
    """Laps in reference seconds; the probe's own time is never counted."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256), dtype=np.float32)
        self._b = rng.random(100_000)
        self._last_probe = self._probe()
        self._start = time.perf_counter()

    def _probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            self._a @ self._a
        np.sort(np.exp(self._b * 1.0001))
        x = 0
        for k in range(20_000):
            x += k
        return time.perf_counter() - t0

    def lap(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since the previous lap."""
        wall = time.perf_counter() - self._start
        probe = self._probe()
        slowdown = (self._last_probe + probe) / (2.0 * PROBE_NOMINAL_S)
        self._last_probe = probe
        self._start = time.perf_counter()
        return wall / slowdown, wall
