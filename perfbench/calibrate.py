"""Host-speed calibration of the end-to-end timings.

The 2-CPU host this benchmark was built on shares its CPUs with other tenants.
A fixed 20 ms computation there takes anything from 11 ms to 60 ms,
switching within a second, and the share of slow time drifts over
minutes: the same simulated work was measured at 0.26 s per op on one
virtual CPU and 0.36 s on the other, and runs of 20-30 s of identical
ops differ by 20 % in their median.  No run length averages that out.

So the loop interleaves a fixed reference computation that uses none of
the repository's code (small-object allocation, dict and heap traffic
and generator resumes, the mix that dominates the simulator's own
time), about 5 % of the measured time, and scales host timings by
``(REFERENCE_S / mean reference time) ** SENSITIVITY``.  That gives
them at a fixed reference speed.  A whole-loop time is scaled by the
mean over the run; one op's time by the mean of the reference samples
taken just before and just after that op, since the speed also swings
within a run.  The raw host timings are kept in the run's JSON report
next to the calibrated ones.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: nominal seconds of one :func:`reference_work` call (about its mean on
#: the 2-CPU host with Python 3.11; 11.5 ms when a CPU runs at full
#: speed)
REFERENCE_S = 0.02
#: reference time interleaved per second of measured time
SHARE = 0.05
#: how strongly the simulator's host time follows the reference's.  The
#: reference is cache-resident and slows more than the simulator when
#: the CPU is contended: over 30 runs of the three workloads, in which
#: the reference's mean ranged from 9.6 ms to 18.5 ms, the simulator's
#: host time moved as about the 0.8th power of the reference's
#: (calibrated spreads 2-6 %, against 4-13 % with a power of 1 and
#: 13-52 % uncalibrated).
SENSITIVITY = 0.8
#: loop iterations of one :func:`reference_work` call
REFERENCE_N = 8_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _accumulator():
    total = 0
    while True:
        total += yield total


def reference_work() -> int:
    """A fixed pure-Python workload; returns a checksum."""
    heap: list = []
    table: dict = {}
    acc = _accumulator()
    next(acc)
    total = 0
    for i in range(REFERENCE_N):
        item = _Item(i, (i * 7) % 1013)
        table[(i % 4096, i & 7)] = item
        heapq.heappush(heap, (item.value, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        total = acc.send(item.value & 15) + (total & 0xFFFF)
        other = table.get(((i * 31) % 4096, (i + 1) & 7))
        if other is not None:
            total += other.key & 3
    return total


class SpeedProbe:
    """Times :func:`reference_work` after the warm-up op and after every op."""

    def __init__(self):
        #: reference times of each :meth:`sample` call; op ``k`` of the
        #: measured loop ran between batches ``k`` and ``k + 1``
        self.batches: List[List[float]] = []
        #: host seconds spent in the probe (not part of any op)
        self.spent_s = 0.0

    def sample(self, measured_s: float) -> None:
        """Run the reference ``SHARE`` times as long as ``measured_s``
        (at least once)."""
        start = time.perf_counter()
        batch = []
        for _ in range(max(1, round(SHARE * measured_s / REFERENCE_S))):
            t0 = time.perf_counter()
            reference_work()
            batch.append(time.perf_counter() - t0)
        self.batches.append(batch)
        self.spent_s += time.perf_counter() - start

    @property
    def factor(self) -> float:
        """Scale from this run's host seconds to reference-speed seconds."""
        return _scale([t for batch in self.batches for t in batch])

    def op_factor(self, index: int) -> float:
        """The scale for the host seconds of op ``index`` alone."""
        return _scale(self.batches[index] + self.batches[index + 1])


def _scale(samples: List[float]) -> float:
    return (REFERENCE_S / statistics.fmean(samples)) ** SENSITIVITY
