"""Tests for the virtual clock and the event kernel's scheduling basics.

``tests/netsim/test_sched.py`` holds the kernel's property suite; these
are the small directed cases the scheduler has been held to since before
the kernel existed, run on :class:`EventKernel` — the only scheduler.
"""

import pytest

from repro.netsim.clock import SimClock
from repro.netsim.sched import EventKernel


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5)
        clock.advance(1.5)
        assert clock.now == 4.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        sched = EventKernel()
        order = []
        sched.call_at(3.0, lambda: order.append("c"))
        sched.call_at(1.0, lambda: order.append("a"))
        sched.call_at(2.0, lambda: order.append("b"))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sched = EventKernel()
        order = []
        for tag in "abc":
            sched.call_at(1.0, lambda tag=tag: order.append(tag))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sched = EventKernel()
        seen = []
        sched.call_at(5.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [5.0]

    def test_schedule_in_relative(self):
        sched = EventKernel()
        seen = []
        sched.call_at(
            2.0, lambda: sched.call_at(sched.now + 3.0, lambda: seen.append(sched.now))
        )
        sched.run()
        assert seen == [5.0]

    def test_schedule_in_past_rejected(self):
        sched = EventKernel()
        sched.clock.advance(10.0)
        with pytest.raises(ValueError):
            sched.call_at(5.0, lambda: None)

    def test_run_until_stops_at_boundary(self):
        sched = EventKernel()
        fired = []
        sched.call_at(1.0, lambda: fired.append(1))
        sched.call_at(10.0, lambda: fired.append(10))
        sched.run_until(5.0)
        assert fired == [1]
        assert sched.now == 5.0
        assert sched.run() == 1

    def test_run_until_processes_boundary_event(self):
        sched = EventKernel()
        fired = []
        sched.call_at(5.0, lambda: fired.append(5))
        sched.run_until(5.0)
        assert fired == [5]

    def test_events_scheduled_during_run(self):
        sched = EventKernel()
        order = []

        def first():
            order.append("first")
            sched.call_at(sched.now + 1.0, lambda: order.append("second"))

        sched.call_at(1.0, first)
        sched.run()
        assert order == ["first", "second"]
        assert sched.now == 2.0

    def test_run_max_events(self):
        sched = EventKernel()
        for i in range(5):
            sched.call_at(float(i + 1), lambda: None)
        assert sched.run(max_events=3) == 3
        assert sched.run() == 2

    def test_processed_counter(self):
        sched = EventKernel()
        sched.call_at(1.0, lambda: None)
        sched.call_at(2.0, lambda: None)
        sched.run()
        assert sched.processed == 2
