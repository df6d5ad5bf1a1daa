"""Simulated clock and deterministic event scheduler."""

from __future__ import annotations

import pytest

from qkdsim.clock import Scheduler, SimClock


class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_never_moves_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        clock.advance_to(5.0)  # behind: silently ignored
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0


class TestScheduler:
    def test_orders_by_time_then_priority_then_insertion(self):
        clock = SimClock()
        sched = Scheduler(clock)
        ran = []
        sched.at(5.0, lambda: ran.append("late"))
        sched.at(1.0, lambda: ran.append("b"), priority=3)
        sched.at(1.0, lambda: ran.append("a"), priority=0)
        sched.at(1.0, lambda: ran.append("c"), priority=3)
        sched.run_until(10.0)
        assert ran == ["a", "b", "c", "late"]
        assert clock.now() == 10.0

    def test_run_until_is_inclusive_and_leaves_later_events(self):
        clock = SimClock()
        sched = Scheduler(clock)
        ran = []
        sched.at(3.0, lambda: ran.append(3))
        sched.at(7.0, lambda: ran.append(7))
        sched.run_until(3.0)
        assert ran == [3]
        assert clock.now() == 3.0
        sched.run_until(7.0)
        assert ran == [3, 7]

    def test_handler_advancing_the_clock_keeps_time_monotone(self):
        clock = SimClock()
        sched = Scheduler(clock)
        seen = []

        def slow():
            clock.advance(4.0)  # overruns past the next event's timestamp
            seen.append(("slow", clock.now()))

        sched.at(1.0, slow)
        sched.at(2.0, lambda: seen.append(("next", clock.now())))
        sched.run_until(10.0)
        # The second event still runs, late, without rewinding the clock.
        assert seen == [("slow", 5.0), ("next", 5.0)]

    def test_handlers_may_schedule_more_events(self):
        clock = SimClock()
        sched = Scheduler(clock)
        ran = []

        def chain(t):
            ran.append(t)
            if t < 5.0:
                sched.at(t + 1.0, lambda: chain(t + 1.0))

        sched.at(0.0, lambda: chain(0.0))
        sched.run_until(3.5)
        assert ran == [0.0, 1.0, 2.0, 3.0]
        sched.run_until(10.0)
        assert ran == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_after_runs_once_after_each_event_that_runs(self):
        clock = SimClock()
        sched = Scheduler(clock)
        ran = []
        sched.at(1.0, lambda: ran.append("a"))
        sched.cancel(sched.at(2.0, lambda: ran.append("cancelled")))
        sched.at(3.0, lambda: ran.append("b"))
        sched.run_until(10.0, after=lambda: ran.append(("after", clock.now())))
        assert ran == ["a", ("after", 1.0), "b", ("after", 3.0)]

    def test_a_cancelled_event_never_runs(self):
        clock = SimClock()
        sched = Scheduler(clock)
        ran = []

        def replan():
            ran.append(("replan", clock.now()))
            sched.cancel(doomed)
            sched.at(4.0, lambda: ran.append(("moved", clock.now())))

        sched.at(1.0, replan)
        doomed = sched.at(3.0, lambda: ran.append(("doomed", clock.now())))
        sched.at(3.0, lambda: ran.append(("kept", clock.now())), priority=9)
        sched.run_until(3.5)
        assert ran == [("replan", 1.0), ("kept", 3.0)]
        sched.cancel(doomed)  # cancelling twice, or after it left the heap, is harmless
        sched.run_until(10.0)
        assert ran == [("replan", 1.0), ("kept", 3.0), ("moved", 4.0)]
        assert clock.now() == 10.0
