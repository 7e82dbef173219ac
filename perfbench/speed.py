"""Timings normalised to a reference machine speed.

The benchmark runs on shared hosts whose speed changes by up to 2x, both
in bursts of milliseconds and in drifts over seconds to minutes, and CPU
time changes with it (the interpreter simply runs slower), so neither wall
nor CPU seconds repeat from run to run: passes of the same work measured
26% apart (quartile distance over median) on one such host. A `SpeedClock`
therefore interleaves a short, fixed calibration unit with the work: at
the start and end of every pass and instance, and before an evaluation
once `interval_s` has passed since the last unit. Each stretch of work
between two units is scaled by REFERENCE_S over the mean duration of the
units around it, which converts it to the seconds it would take at the
speed the reference was measured at; the same passes then measured 2%
apart. Calibration time itself is excluded. The unit is the benchmark's
own code, so no change to the planner can change the scale.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# Duration of one calibration unit on an uncontended core of a 2 GHz
# x86-64 VM (Python 3.11): the scale of every normalised time.
REFERENCE_S = 0.0016
# Units on each side of a stretch of work that set its speed.
WINDOW = 2


def calibration_unit() -> Fraction:
    """Fixed pure-Python work in the planner's mix: a dense elimination over
    exact rationals, as in a simplex pivot, then hashing and grouping of
    tuples, as in the graph's bookkeeping. On a contended host, units of
    each kind slowed down with the planner: log-log slopes of planner time
    against unit time were 0.8 to 1.1."""
    n = 5
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n + 4)]
            for i in range(n)]
    for p in range(n):
        inverse = 1 / (rows[p][p] or Fraction(1))
        rows[p] = [v * inverse for v in rows[p]]
        for r in range(n):
            if r != p and rows[r][p]:
                factor = rows[r][p]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[p])]
    values = [Fraction(i % 29 + 1, i % 7 + 1) for i in range(300)]
    table = {(i % 61, i % 7): v for i, v in enumerate(values)}
    groups = [frozenset(k for k in table if k[1] == j) for j in range(7)]
    return sum(table.values(), rows[0][-1]) + len(groups)


class SpeedClock:
    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.marks: list[tuple[float, float]] = []  # (start, end) of each unit
        self._next = 0.0
        self._ends: list[float] = []
        self._cumulative: list[float] = []

    def calibrate(self) -> None:
        start = perf_counter()
        calibration_unit()
        end = perf_counter()
        self.marks.append((start, end))
        self._next = end + self.interval_s

    def tick(self) -> None:
        """Calibrate if the last unit is more than `interval_s` old."""
        if perf_counter() >= self._next:
            self.calibrate()

    def _factor(self, segment: int) -> float:
        """Scale of the work between unit `segment` and the next one.

        The host's speed flips between a fast and a slow state every few
        milliseconds, so a unit catches one state or the other; work time
        follows the mean unit duration, taken over WINDOW units each side.
        """
        nearby = self.marks[max(0, segment - WINDOW + 1):segment + WINDOW + 1]
        return REFERENCE_S / statistics.fmean(end - start for start, end in nearby)

    def _at(self, t: float) -> float:
        """Normalised work time from the end of the first unit up to `t`."""
        if len(self._ends) != len(self.marks):
            self._ends = [end for _, end in self.marks]
            self._cumulative = [0.0]
            for k in range(len(self.marks) - 1):
                gap = self.marks[k + 1][0] - self.marks[k][1]
                self._cumulative.append(self._cumulative[-1] + gap * self._factor(k))
        k = bisect_right(self._ends, t) - 1
        if k < 0:
            return 0.0
        segment_end = self.marks[k + 1][0] if k + 1 < len(self.marks) else t
        return self._cumulative[k] + (min(t, segment_end) - self.marks[k][1]) * self._factor(k)

    def normalise(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between `start` and `end`."""
        return self._at(end) - self._at(start)

    def speed(self) -> float:
        """Reference over mean measured unit duration, over all units so far."""
        return REFERENCE_S / statistics.fmean(end - start for start, end in self.marks)
