"""Property tests for the discrete-event kernel (`repro.netsim.sched`)."""

import random

import pytest

from repro.netsim.clock import SimClock
from repro.netsim.sched import EventKernel
from repro.seeding import derive_rng
from repro.telemetry import CostLedger


class TestOrdering:
    def test_fires_in_time_order(self):
        kernel = EventKernel()
        fired = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            kernel.call_at(t, lambda t=t: fired.append(t))
        kernel.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ties_fire_in_scheduling_order(self):
        kernel = EventKernel()
        fired = []
        for i in range(50):
            kernel.call_at(1.0, fired.append, i)
        kernel.run()
        assert fired == list(range(50))

    def test_random_schedule_matches_sorted_reference(self):
        """Property: execution order == stable sort by (time, insertion).

        Times are drawn from a tiny range so ties are plentiful — the
        case a bare heap of (time, callback) pairs gets wrong.
        """
        rng = derive_rng(20170412, "sched", "property")
        for trial in range(20):
            kernel = EventKernel()
            plan = [(rng.randrange(5) * 1.0, i) for i in range(200)]
            fired = []
            for time, ident in plan:
                kernel.call_at(time, fired.append, ident)
            kernel.run()
            reference = [ident for _, ident in sorted(plan, key=lambda p: p[0])]
            assert fired == reference  # sorted() is stable: ties keep order

    def test_events_scheduled_during_run_interleave_correctly(self):
        kernel = EventKernel()
        fired = []

        def first():
            fired.append("first")
            # Same-instant follow-up: must run before the later event.
            kernel.call_at(kernel.now, lambda: fired.append("follow-up"))

        kernel.call_at(1.0, first)
        kernel.call_at(2.0, lambda: fired.append("second"))
        kernel.run()
        assert fired == ["first", "follow-up", "second"]

    def test_no_event_starvation_under_constant_rescheduling(self):
        """A self-rescheduling ticker cannot starve other events."""
        kernel = EventKernel()
        fired = []

        def ticker():
            fired.append(("tick", kernel.now))
            if kernel.now < 10.0:
                kernel.call_at(kernel.now + 1.0, ticker)

        kernel.call_at(0.0, ticker)
        for t in (2.5, 5.5, 8.5):
            kernel.call_at(t, lambda t=t: fired.append(("other", t)))
        kernel.run()
        others = [entry for entry in fired if entry[0] == "other"]
        assert others == [("other", 2.5), ("other", 5.5), ("other", 8.5)]
        assert fired.index(("other", 2.5)) == 3  # after ticks at 0, 1, 2


class TestExecution:
    def test_rejects_past_and_negative_scheduling(self):
        kernel = EventKernel(clock=SimClock(start=10.0))
        with pytest.raises(ValueError):
            kernel.call_at(9.999, lambda: None)

    def test_clock_advances_to_each_event(self):
        kernel = EventKernel()
        seen = []
        for t in (1.0, 2.5, 7.25):
            kernel.call_at(t, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [1.0, 2.5, 7.25]
        assert kernel.now == 7.25

    def test_run_until_is_boundary_inclusive_and_jumps(self):
        kernel = EventKernel()
        fired = []
        for t in (1.0, 2.0, 3.0):
            kernel.call_at(t, fired.append, t)
        assert kernel.run_until(2.0) == 2
        assert fired == [1.0, 2.0]
        assert kernel.now == 2.0
        assert kernel.run_until(10.0) == 1
        assert kernel.now == 10.0  # jumps to the deadline past the last event

    def test_run_respects_max_events_and_counts_processed(self):
        kernel = EventKernel()
        for t in range(10):
            kernel.call_at(float(t), lambda: None)
        assert kernel.run(max_events=4) == 4
        assert kernel.processed == 4
        assert kernel.run() == 6
        assert kernel.processed == 10

    def test_single_arg_fast_path(self):
        kernel = EventKernel()
        fired = []
        kernel.call_at(1.0, fired.append, "payload")
        kernel.call_at(2.0, fired.append, None)  # None is a valid payload
        kernel.run()
        assert fired == ["payload", None]

    def test_costs_ledger_counts_events(self):
        costs = CostLedger()
        kernel = EventKernel(costs=costs)
        for t in range(5):
            kernel.call_at(float(t), lambda: None)
        kernel.run_until(2.0)
        kernel.run()
        assert costs.totals().get("sched_event") == 5

    def test_step_runs_one_event_at_a_time(self):
        kernel = EventKernel()
        fired = []
        kernel.call_at(1.0, fired.append, "first")
        kernel.call_at(1.0, fired.append, "second")
        assert kernel.step() is True
        assert fired == ["first"]
        assert kernel.step() is True
        assert kernel.step() is False
        assert fired == ["first", "second"]


class TestDeterminism:
    def test_identical_schedules_replay_identically(self):
        def run_once(seed):
            kernel = EventKernel()
            rng = random.Random(seed)
            log = []

            def work(ident):
                log.append((kernel.now, ident))
                if len(log) < 200:
                    kernel.call_at(kernel.now + rng.random(), work, len(log))

            for i in range(10):
                kernel.call_at(rng.random(), work, i)
            kernel.run()
            return log

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)
