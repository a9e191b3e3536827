"""A clock that runs at reference speed, for a host whose speed drifts.

The shared hosts this benchmark runs on change speed by up to a factor
of two over seconds to minutes, in CPU time as in wall time, so the wall
clock alone measures the host as much as treealg.  While a
:class:`Speedometer` is active, a timer interrupts the run every
``INTERVAL_S`` seconds and times one fixed slice of interpreter work
that calls no treealg code.  :func:`clock` then advances by wall time
times ``NOMINAL_S`` over the median cost of the last ``WINDOW`` slices,
and stands still while a slice runs.  A duration read from it is the
time the same work would take on a host that runs one slice in
``NOMINAL_S``: a change to treealg moves it, a change of host speed
mostly does not.

The timer is a process-wide signal, so one speedometer at a time is
active, and :func:`clock` reads that one.  With none active it is the
wall clock.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from random import Random

from oracle import random_tree

INTERVAL_S = 0.02
NOMINAL_S = 0.001
WINDOW = 15  # slices whose median cost sets the rate, about 0.3 s of the run


def _trees(count: int = 300) -> tuple:
    rng = Random(0)
    return tuple(random_tree(rng, "abc", rng.randint(1, 12)) for _ in range(count))


TREES = _trees()


def reference_slice(trees=TREES) -> int:
    """Encode each tree with an explicit stack; no recursion, so it runs at any depth."""
    size = 0
    for t in trees:
        parts = []
        stack = [t]
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                parts.append("<")
                stack += (">", node[1], "*", node[0])
            else:
                parts.append(node)
        size += len("".join(parts))
    return size


_active = None


def clock() -> float:
    """Seconds at reference speed while a speedometer runs, wall seconds otherwise."""
    meter = _active
    return time.perf_counter() if meter is None else meter.now()


class Speedometer:
    """Samples the host's speed on a timer and keeps the reference clock."""

    def __init__(self):
        self.costs = deque(maxlen=WINDOW)
        self.slices = 0
        self.slice_s = 0.0  # wall seconds spent in slices
        self._ticks = 0  # bumped on every sample, so that now() can detect one
        self._raw = self._ref = 0.0  # wall and reference time of the last sample
        self._rate = 1.0
        self._busy = False

    def now(self) -> float:
        while True:
            ticks = self._ticks
            value = self._ref + (time.perf_counter() - self._raw) * self._rate
            if ticks == self._ticks:
                return value

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        enter = time.perf_counter()
        ref = self._ref + (enter - self._raw) * self._rate
        collecting = gc.isenabled()
        gc.disable()  # a collection of the run's heap is not the slice's cost
        try:
            start = time.perf_counter()
            reference_slice()
            cost = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.costs.append(cost)
        self._rate = NOMINAL_S / statistics.median(self.costs)
        self._ref = ref
        self._raw = time.perf_counter()
        self.slices += 1
        self.slice_s += self._raw - enter
        self._ticks += 1
        self._busy = False

    def __enter__(self) -> "Speedometer":
        global _active
        if _active is not None:
            raise RuntimeError("a speedometer is already running")
        for _ in range(WINDOW):  # warm the slice, then fill the window
            reference_slice()
        self._raw = self._ref = time.perf_counter()
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._wall0, self._ref0 = time.perf_counter(), self.now()
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None
        self._wall1, self._ref1 = time.perf_counter(), self.now()

    def summary(self) -> str:
        wall = self._wall1 - self._wall0
        return (f"reference clock ran at {(self._ref1 - self._ref0) / wall:.3f} of wall speed; "
                f"{self.slices} speed samples took {self.slice_s / wall:.1%} of wall time")
