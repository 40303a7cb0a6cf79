"""The machine's speed during a run, from a fixed calibration loop.

On a shared machine the same Python code runs at a speed that drifts by
tens of percent over seconds: on a shared 2-core Xeon VM at 2.1 GHz, one
fixed loop took 69 to 135 ms across the one-second windows of one minute,
and one census pass took 9.0 to 13.0 s.  So the benchmark times a fixed loop of interpreter
work between jobs, and reports end-to-end times in reference seconds: the raw time
multiplied by REFERENCE_S over the mean loop time of the run.  A reference
second is a second on a machine that runs the loop in REFERENCE_S.  On the
census pass above, this scaling cut the spread from 9.0-13.0 s to 8.3-9.3 s.
Scaling each job by the samples nearest to it did worse: over five seeds,
census jobs_per_s spread by 8% against 2% with the run's mean.

The loop is the benchmark's own code, so no change to lvcops changes its
time.  It runs with the garbage collector off, so that the size of the heap
a workload left behind does not either.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

REFERENCE_S = 1e-3  # a round loop time; the loop took 0.8 to 1.1 ms on the VM above
SAMPLE_EVERY_S = 0.2
_LOOP = 2_000


def _loop() -> int:
    d: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(_LOOP):
        k = (i & 255, i >> 4)
        d[k] = d.get(k, 0) | (1 << (i & 31))
        acc ^= (i * 2654435761) & 0xFFFFFF
    return len(d) + acc


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time the loop; the best of three, to drop a stray interrupt."""
        was_on = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                _loop()
                best = min(best, time.perf_counter() - t0)
        finally:
            if was_on:
                gc.enable()
        self.samples.append(best)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a raw time of this run into reference seconds:
        REFERENCE_S over the mean loop time, without the top and bottom
        tenth of the samples."""
        s = sorted(self.samples)
        cut = len(s) // 10
        return REFERENCE_S / statistics.fmean(s[cut : len(s) - cut] or s)
