"""Injectable time sources for telemetry and real transports.

Simulated components share a :class:`~repro.netsim.clock.SimClock` and
never read wall-clock time.  The *real* sockets
(:class:`repro.dns.listener.Listener`) pass each query's arrival time
to the engine (the start of its ``auth.query`` span); they take it from
a clock of this module, not ``time.time()``, which is neither monotonic
nor injectable: :class:`MonotonicClock` by default, or any
:class:`Clock` a caller drives by hand.

A "clock" here is any object with a ``now() -> float`` method returning
seconds.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything that can report the current time in seconds."""

    def now(self) -> float:  # pragma: no cover - protocol signature
        ...


class MonotonicClock:
    """Wall clock backed by :func:`time.monotonic` (never goes backwards).

    An optional ``epoch`` offset anchors the stream to a meaningful
    zero; by default the clock reads zero at construction time, so two
    servers sharing one instance produce mutually comparable stamps.
    """

    def __init__(self, source: Callable[[], float] = time.monotonic):
        self._source = source
        self._epoch = source()

    def now(self) -> float:
        return self._source() - self._epoch


#: process-wide default for real sockets; shared so that listeners and
#: clients stamping one engine's queries agree on the timeline.
DEFAULT_CLOCK = MonotonicClock()


__all__ = ["Clock", "DEFAULT_CLOCK", "MonotonicClock"]
