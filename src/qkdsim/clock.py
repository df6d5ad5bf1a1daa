"""Clock abstraction and a deterministic event scheduler.

Every time-aware component takes a clock object instead of reading wall
time, so a whole run executes under one simulated clock, fast and
reproducible, whether its components talk in process or over sockets.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class SimClock:
    """Monotone simulated clock. Only ever moves forward."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot move backwards")
        self._now += dt

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t


class Scheduler:
    """Priority-queue event loop over a SimClock.

    Events at the same timestamp run in (priority, insertion order).
    A handler may advance the clock itself (e.g. modelled message
    latencies); later events never run before their scheduled time but
    may run late if a handler overran it, which keeps time monotone.
    A cancelled event stays in the heap marked removed, and is dropped unrun.
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._heap: list[list] = []  # [t, priority, seq, fn or None]
        self._seq = 0

    def at(self, t: float, fn: Callable[[], None], priority: int = 5) -> list:
        """Schedule fn at t; the returned entry is what cancel takes."""
        entry = [t, priority, self._seq, fn]
        heapq.heappush(self._heap, entry)
        self._seq += 1
        return entry

    def cancel(self, entry: list) -> None:
        entry[-1] = None

    def run_until(self, t_end: float, after: Optional[Callable[[], None]] = None) -> None:
        """Run the events up to t_end, calling after() once each has run."""
        while self._heap and self._heap[0][0] <= t_end:
            t, _prio, _seq, fn = heapq.heappop(self._heap)
            if fn is None:
                continue
            self.clock.advance_to(t)
            fn()
            if after is not None:
                after()
        self.clock.advance_to(t_end)
