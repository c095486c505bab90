"""Host-speed correction of the benchmark's timings.

The hosts this benchmark runs on are shared: for seconds to minutes at a
time, other tenants slow a CPU-bound Python process down by up to 1.8x.
Measured over 20 s, the same workload's throughput then varies by about
20% from run to run, and neither longer runs nor best-of-k timings bring
that under 10%.

:class:`HostSpeed` runs a fixed reference loop on a background thread
every :data:`PERIOD` seconds while the workload runs, and rescales each
timed interval to the time it would have taken on a host where that
loop takes :data:`NOMINAL_LOOP_S`::

    scaled = measured * NOMINAL_LOOP_S * mean(1 / loop time around it)

The loop is the benchmark's own code, so a change to the program moves
the measured time but not the correction.  The loop holds the
interpreter lock for about 0.1 ms every 10 ms, which costs the workload
about 1%, the same on every run.  Each loop time is taken while the
workload's thread is parked, or, for the campaign workload, while its
worker processes load the other CPUs -- the conditions the workload runs
under.  An in-process workload is pinned to one CPU first
(:func:`pin_to_one_cpu`), so that the loop measures the CPU the workload
runs on; the two CPUs of a shared host slow down independently.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Optional

#: Seconds between reference loops.
PERIOD = 0.01
#: Loops started within this many seconds of an interval describe it.
WINDOW = 0.02
#: The reference loop's duration on the nominal host (an unloaded core
#: of the 2-vCPU machine the baseline was recorded on).
NOMINAL_LOOP_S = 1e-4


def reference_loop() -> None:
    """Fixed interpreter work, independent of the program under test."""
    total = 0
    for i in range(1500):
        total += i * i % 7


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Background sampler of the host's momentary speed.

    Use as a context manager around the timed work; call
    :meth:`scaled` afterwards.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.loop_s: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        while True:
            start = time.perf_counter()
            reference_loop()
            self.loop_s.append(time.perf_counter() - start)
            self.starts.append(start)
            if self._stop.wait(PERIOD):
                return

    def __enter__(self) -> "HostSpeed":
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-hostspeed", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def scaled(self, begin: float, end: float) -> float:
        """Seconds ``[begin, end]`` would have taken on the nominal host."""
        count = len(self.starts)
        low = bisect.bisect_left(self.starts, begin - WINDOW, 0, count)
        high = bisect.bisect_right(self.starts, end + WINDOW, 0, count)
        if low == high:  # no sample near: use the nearest one
            low = min(low, count - 1)
            high = low + 1
        # The mean speed, not the mean loop time: work done in an
        # interval is its duration times the host's mean speed over it.
        speed = statistics.fmean(1.0 / s for s in self.loop_s[low:high])
        return (end - begin) * NOMINAL_LOOP_S * speed
