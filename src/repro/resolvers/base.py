"""Server-selection interface.

A :class:`ServerSelector` decides, per outgoing query, which of a zone's
authoritative addresses to contact, and learns from the outcome.  One
selector instance belongs to one recursive resolver (its state *is* the
resolver's preference).

Feedback is folded in here, once, for every family: a subclass tunes
``alpha`` / ``timeout_floor_ms`` and extends ``on_response`` /
``on_timeout`` through ``super()`` only when it keeps state of its own,
so the ``selector_events_total`` count cannot be lost in an override.
"""

from __future__ import annotations

import abc
import random

from ..seeding import CounterStream, default_rng
from ..telemetry import NULL_TELEMETRY
from .infracache import InfrastructureCache


class ServerSelector(abc.ABC):
    """Strategy for choosing among a zone's authoritative addresses."""

    #: short identifier used in population mixes and reports
    name: str = "abstract"
    #: whether the implementation keeps an infrastructure cache at all
    uses_infra_cache: bool = True
    #: EWMA weight of a new RTT sample
    alpha: float = 0.3
    #: SRTT a timed-out server is raised to at least (doubling otherwise)
    timeout_floor_ms: float = 400.0

    __slots__ = ("rng", "telemetry")

    def __init__(self, rng: random.Random | CounterStream | None = None):
        # Namespaced per selector family: two different selector classes
        # falling back to the default must not tie-break identically
        # (the old Random(0) default synchronized them).
        self.rng = (
            rng if rng is not None
            else default_rng("resolvers.selector", type(self).name)
        )
        #: the owning resolver's bundle when that one is instrumented
        self.telemetry = NULL_TELEMETRY

    @abc.abstractmethod
    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        """Pick the authoritative address for the next query.

        ``addresses`` are the zone's distinct server addresses.
        """

    def on_response(
        self,
        address: str,
        rtt_ms: float,
        addresses: list[str],
        cache: InfrastructureCache,
        now: float,
    ) -> None:
        """Fold a successful exchange into the selector's state."""
        cache.observe_rtt(address, rtt_ms, now, self.alpha)
        if self.telemetry.enabled:
            self._count_event("response")

    def on_timeout(
        self,
        address: str,
        addresses: list[str],
        cache: InfrastructureCache,
        now: float,
    ) -> None:
        """Fold a timeout into the selector's state."""
        cache.observe_timeout(address, now, self.timeout_floor_ms)
        if self.telemetry.enabled:
            self._count_event("timeout")

    def _count_event(self, event: str) -> None:
        self.telemetry.registry.counter(
            "selector_events_total",
            "selection-feedback events, by selector family and kind",
            ("selector", "event"),
        ).labels(selector=self.name, event=event).inc()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
