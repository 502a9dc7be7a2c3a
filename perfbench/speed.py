"""Host speed, measured by a short reference loop, to scale times by.

The small shared host this benchmark was defined on runs each vCPU at
one of two speeds that alternate within seconds, ~1.6x apart (the
hyperthread sibling idle or busy with a neighbour's work), and that
moves every wall-clock figure.  The benchmark therefore times a fixed
piece of its own pure-Python code (integer arithmetic, dict stores,
list appends; no NumPy, so a probe never releases the interpreter lock
mid-way) on the thread doing the work, right before and after each
operation, and divides each operation's time by the host factor
``f = probe duration / REF_NOMINAL_S``: figures read as if measured at
the fast speed.  The program's code never runs inside a probe, so a
change to the program cannot move ``f``; probes run with the garbage
collector paused so they time the CPU, not collections the program's
garbage would trigger.  Raw figures and the median ``f`` are kept in
each result file.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Fast-mode probe duration (its 5th percentile over 3000 probes) on
#: the host the benchmark was defined on: 2 vCPU x86-64, Python 3.11.
REF_NOMINAL_S = 320e-6


class HostSpeed:
    """Reference-loop probes and the host factors they give."""

    def __init__(self):
        self.durations: list[float] = []
        #: perf_counter at each probe's end, for matching by time
        self.stamps: list[float] = []

    def probe(self, times: int = 1) -> float:
        """Time the reference loop *times* times; return the last factor."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = time.perf_counter()
                _reference()
                end = time.perf_counter()
                self.durations.append(end - start)
                self.stamps.append(end)
        finally:
            if enabled:
                gc.enable()
        return self.durations[-1] / REF_NOMINAL_S

    def factor(self, last: int | None = None) -> float:
        """Median of the last *last* probes (all by default) over nominal."""
        recent = self.durations[-last:] if last else self.durations
        return statistics.median(recent) / REF_NOMINAL_S


class OpClock:
    """Times operations between probes: each op is scaled by the mean
    factor of the probe just before and the probe just after it."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._before = speed.probe()
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        """End the op; probe; return the factor applied to it."""
        raw = time.perf_counter() - self._start
        after = self.speed.probe()
        factor = 0.5 * (self._before + after)
        self._before = after
        self.raw.append(raw)
        self.scaled.append(raw / factor)
        return factor

    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled) if self.scaled else 0.0

    def raw_ops_per_s(self) -> float:
        return len(self.raw) / sum(self.raw) if self.raw else 0.0


def _reference() -> float:
    x = 0
    table = {}
    items = []
    for k in range(2500):
        x += k * k % 7
        table[k & 255] = x
        if k & 15 == 0:
            items.append(x / (k + 1.0))
    return x + sum(items)
