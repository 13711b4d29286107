"""Host-speed calibration: a fixed pure-Python task timed beside the workload.

On a shared virtual machine the speed of the CPU drifts: the same query
takes 1.3 to 1.7 times longer in a slow stretch than in a fast one, and the
stretches last from a few seconds to tens of seconds, so a run's median
lands in whichever stretch held most of it.  No statistic taken inside one
run can average that away.  Instead every timed sample is paired with one
*unit* of this module's task, run right next to it, and the benchmark
reports

    sample × REFERENCE_UNIT_MS / unit_ms

that is, the sample in milliseconds of a host on which one unit takes
``REFERENCE_UNIT_MS``.  The unit uses no code of the program, so no change
to the program can move it; a slow stretch moves both alike and cancels.
The task mixes what the engine's hot paths do in Python: frozenset unions,
intersections and subset tests, dict counting, and ``list.index`` scans
over objects with a Python ``__eq__``.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List

#: One unit's time on the host the reference numbers were taken on, in a
#: fast stretch.  It only fixes the scale of the reported numbers.
REFERENCE_UNIT_MS = 3.0

_rng = random.Random("calibration")
_SETS = [frozenset(_rng.sample(range(200), 8)) for _ in range(120)]


class _Member:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


_MEMBERS = [_Member(s) for s in _SETS]
_PROBES = [_Member(s) for s in _SETS[::6]]


def _task() -> int:
    seen = {}
    total = 0
    for i, a in enumerate(_SETS):
        for b in _SETS[i:i + 30]:
            union = a | b
            if len(union) < 14 and not a <= b:
                seen[union] = seen.get(union, 0) + 1
            total += len(a & b)
    for probe in _PROBES:
        total += _MEMBERS.index(probe)
    return total + len(seen)


def unit_ms() -> float:
    """Time one unit of the task, in milliseconds."""
    started = time.perf_counter()
    _task()
    return (time.perf_counter() - started) * 1000.0


def scale(unit: float) -> float:
    """The factor that brings a sample taken next to ``unit`` to the reference host."""
    return REFERENCE_UNIT_MS / unit


class Timeline:
    """Units taken over a run, each stamped with when it ended.

    ``scale_at(t)`` uses the last unit taken at or before ``t`` (the first
    unit for earlier times), for samples not taken by the thread that runs
    the units.
    """

    def __init__(self):
        self.at: List[float] = []
        self.units: List[float] = []

    def take(self) -> float:
        unit = unit_ms()
        self.at.append(time.perf_counter())
        self.units.append(unit)
        return unit

    def scale_at(self, moment: float) -> float:
        index = max(0, bisect.bisect_right(self.at, moment) - 1)
        return scale(self.units[index])

    def median(self) -> float:
        return statistics.median(self.units)
