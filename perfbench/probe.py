"""The host-speed probe: a fixed reference task timed beside the workload.

The benchmark's host is shared, and its speed changes by up to 1.7x for
tens of seconds at a time (other tenants contend for its caches and memory
bandwidth).  That slows every operation alike, so the timed loop runs this
task every quarter second and reports each operation's latency divided by
the slowdown the task saw around it: the time the operation would have
taken on the host at its reference speed.

The task imports nothing from the program, so a change to the program
cannot move it.  It builds, sorts and scans a few thousand small dicts,
because allocation- and memory-bound Python is what the host's slow phases
slow most, and what the program's operations mostly do: on form-bulk
windows, dividing by this task cut the spread of per-window medians from
0.51 to 0.07 of their median, where a pure arithmetic loop only reached
0.23.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

#: the task's median seconds on the 2-vCPU host the benchmark was built on,
#: in its fast phases (Python 3.11); latencies are reported at this speed.
REFERENCE_S = 0.0020
#: seconds between samples.
INTERVAL_S = 0.25
#: task runs per sample; a sample is their median.
RUNS = 3
#: seconds on each side of a moment whose samples give its slowdown.
SPAN_S = 0.4


def _task() -> int:
    rows = [{"id": i, "name": str(i), "group": i % 7} for i in range(3000)]
    rows.sort(key=lambda row: (row["group"], row["name"]))
    return sum(row["id"] for row in rows if row["group"] == 3)


def measure() -> float:
    """The host's current slowdown against its reference speed."""
    times = []
    for _ in range(RUNS):
        gc.collect()
        started = time.perf_counter()
        _task()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_S


class SpeedProbe:
    """Slowdown samples taken at most every :data:`INTERVAL_S`, and the
    slowdown at any moment of the run: the median of the samples within
    :data:`SPAN_S` of it, on both sides, so a change of the host's speed is
    seen by the operations right after it, and one task run's jitter by
    none."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._slowdowns: List[float] = []
        self.sample()

    def sample(self) -> None:
        started = time.perf_counter()
        slowdown = measure()
        self._times.append((started + time.perf_counter()) / 2)
        self._slowdowns.append(slowdown)

    def update(self) -> None:
        if time.perf_counter() - self._times[-1] >= INTERVAL_S:
            self.sample()

    def slowdown_at(self, moment: float) -> float:
        low = bisect.bisect_left(self._times, moment - SPAN_S)
        high = bisect.bisect_right(self._times, moment + SPAN_S)
        if low == high:
            nearest = min(range(len(self._times)), key=lambda i: abs(self._times[i] - moment))
            return self._slowdowns[nearest]
        return statistics.median(self._slowdowns[low:high])
