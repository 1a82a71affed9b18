"""How fast the host runs Python right now, to put wall times on one scale.

On a shared host the same work can take twice as long from one minute
to the next, and the speed can switch within a second; the process time
moves with the wall time, so it is no escape. A sampler thread runs a
small fixed task, which touches nothing of the program, every
``PERIOD_S`` seconds; each sample gives the host's speed relative to a
reference host on which the task takes ``REFERENCE_TASK_S``. An
operation's wall time times the mean speed sampled during it is its
time in reference seconds.

The sampler measures the CPU it runs on, so :func:`pin_to_one_cpu` puts
the whole process, sampler included, on one CPU first. The task runs
while the sampler holds the interpreter lock, so a change to the program
that keeps the process busier (threads of its own, say) slows the
operations but not the samples, and shows in reference seconds.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List

now = time.perf_counter

#: seconds the calibration task takes on the reference host (the fast
#: state of the 2-vCPU cloud host the bounds were set on)
REFERENCE_TASK_S = 0.00025
#: seconds between two samples
PERIOD_S = 0.05
#: an operation with fewer samples inside it uses the latest this many
MIN_SAMPLES = 3


def calibration_task() -> int:
    """A fixed quarter millisecond or so of string and dict work."""
    counts = {}
    for i in range(400):
        head, _, tail = ("w%dx%d" % (i % 97, i % 13)).partition("x")
        counts[head] = counts.get(head, 0) + len(tail)
    return len(counts)


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Samples the host's speed from a thread while the block runs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._times: List[float] = []
        self._speeds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-hostspeed")

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = now()
            calibration_task()
            end = now()
            with self._lock:
                self._times.append(end)
                self._speeds.append(REFERENCE_TASK_S / (end - start))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, over ``[start, end]``."""
        with self._lock:
            last = bisect.bisect_right(self._times, end)
            first = bisect.bisect_left(self._times, start)
            first = min(first, max(0, last - MIN_SAMPLES))
            window = self._speeds[first:last]
        return statistics.fmean(window) if window else 1.0

    def mean(self) -> float:
        """Mean speed over every sample so far."""
        with self._lock:
            return statistics.fmean(self._speeds) if self._speeds else 1.0
