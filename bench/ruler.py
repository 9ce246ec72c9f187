"""A fixed piece of pure-Python work, timed between requests.

On the 2-vCPU virtual machine this benchmark was tuned on, the same call
runs up to 1.5 times slower in phases that last from seconds to minutes,
and every kind of Python work slows together.  Each time the benchmark
reports is therefore scaled by ``REF_S / r``, where ``r`` is the mean
duration of the two ruler readings around it: the figures are seconds on
a core where the ruler takes ``REF_S``.  The ruler runs the benchmark's
own reference code on a fixed graph and shares nothing with the package,
so a change to the package cannot move it.  The raw times are kept in
the results file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import reference as ref

REF_S = 0.025  # fastest ruler readings on the tuning machine
EVERY_S = 0.5  # longest stretch of requests between two readings


def _blowup_rows(parts=7, size=12):
    """Bitmask rows of the blow-up C7[12], built without the package."""
    rows = []
    for i in range(parts):
        near = 0
        for j in (i - 1, i, i + 1):
            j %= parts
            near |= ((1 << size) - 1) << (j * size)
        for k in range(size):
            v = i * size + k
            rows.append(near & ~(1 << v))
    return rows


class Ruler:
    def __init__(self, repeat=15):
        self.rows = _blowup_rows()
        self.repeat = repeat
        self.starts = []
        self.durations = []

    def read(self):
        full = (1 << len(self.rows)) - 1
        t0 = time.perf_counter()
        for _ in range(self.repeat):
            ref.greedy_colors(self.rows, ref.smallest_last(self.rows, full))
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def read_if_due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.read()

    def scale(self, t0):
        """Factor for a sample that started at *t0*: REF_S over the mean of
        the last reading before it and the first one after it."""
        k = bisect.bisect_right(self.starts, t0) - 1
        around = self.durations[max(k, 0):k + 2]
        return REF_S * len(around) / sum(around)
