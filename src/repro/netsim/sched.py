"""The discrete-event virtual-time kernel.

One binary heap of (time, seq) ordered entries drives the whole
simulation: measurement ticks, packet deliveries, and retry timeouts
are all just events on the shared :class:`~repro.netsim.clock.SimClock`.
Components never sleep and never busy-wait — a resolver that sends a
query schedules the delivery (or its own timeout) and returns, so one
process interleaves thousands of in-flight resolutions.

Determinism contract (the property every user of this kernel leans on):

* events fire in ``(time, seq)`` order, where ``seq`` is the kernel's
  monotonically increasing insertion counter — ties at one instant run
  in scheduling order, never in hash or heap-internal order;
* the kernel itself consumes no randomness and reads no wall clock;
* a scheduled event always runs: there is no cancellation.

Heap entries are plain lists ``[time, seq, fn, arg]`` on purpose:
``heapq`` compares them with C-level list comparison (time first, then
seq — the callback is never compared), which keeps the per-event cost
far below a Python ``__lt__`` on a handle class.

This module is the single implementation of virtual-time event
ordering in the repo: every resolution and every campaign runs on it.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .clock import SimClock

#: sentinel: "call fn with no argument" (``None`` is a valid payload).
_NO_ARG = object()

#: heap-entry slot indices, for readers of the inlined hot loops.
TIME, SEQ, FN, ARG = 0, 1, 2, 3


class EventKernel:
    """Binary-heap event loop over one shared virtual clock.

    ``costs`` is an optional deterministic cost ledger (anything with
    ``enabled`` and ``count(name, amount)``); when enabled the kernel
    bulk-counts every executed event as ``sched_event`` so the ledger's
    per-query export decomposes campaign cost per *event*, not per
    blocking call.
    """

    __slots__ = ("clock", "costs", "_heap", "_seq", "processed")

    def __init__(self, clock: SimClock | None = None, costs=None):
        self.clock = clock if clock is not None else SimClock()
        self.costs = costs
        self._heap: list[list] = []
        self._seq = 0
        #: events executed over the kernel's lifetime
        self.processed = 0

    # -- scheduling --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def call_at(self, time: float, fn: Callable, arg=_NO_ARG) -> None:
        """Schedule ``fn`` (optionally ``fn(arg)``) at an absolute time."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule at {time} before now {self.clock.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, [time, seq, fn, arg])

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; False when the queue is empty."""
        if not self._heap:
            return False
        time, _, fn, arg = heapq.heappop(self._heap)
        # Heap order makes the assignment monotonic by construction;
        # skipping advance_to's back-in-time check is safe here and
        # saves a method call per event.
        self.clock.now = time
        if arg is _NO_ARG:
            fn()
        else:
            fn(arg)
        self.processed += 1
        if self.costs is not None and self.costs.enabled:
            self.costs.count("sched_event")
        return True

    def run_until(self, deadline: float) -> int:
        """Execute every event with ``time <= deadline``, then jump there.

        The hot loop of the kernel: inlined pop/advance/dispatch,
        one pass, no per-event method calls besides the callback itself.
        Returns the number of events executed.
        """
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        executed = 0
        while heap:
            entry = heap[0]
            if entry[TIME] > deadline:
                break
            pop(heap)
            clock.now = entry[TIME]
            fn = entry[FN]
            arg = entry[ARG]
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            executed += 1
        self.processed += executed
        if executed and self.costs is not None and self.costs.enabled:
            self.costs.count("sched_event", executed)
        if deadline > clock.now:
            clock.advance_to(deadline)
        return executed

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue (or ``max_events``); returns events executed."""
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        executed = 0
        while heap:
            entry = pop(heap)
            clock.now = entry[TIME]
            fn = entry[FN]
            arg = entry[ARG]
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        self.processed += executed
        if executed and self.costs is not None and self.costs.enabled:
            self.costs.count("sched_event", executed)
        return executed

    def __repr__(self) -> str:
        return (
            f"EventKernel(now={self.clock.now:.6f}, pending={len(self._heap)}, "
            f"processed={self.processed})"
        )


__all__ = ["EventKernel"]
