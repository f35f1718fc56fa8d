"""Unbound-style selection: uniform within an RTT band of the fastest.

Unbound keeps smoothed RTT estimates per server (infra cache, ~15 min
TTL [30]) and, when choosing, picks uniformly at random among all servers
whose estimate lies within ``band_ms`` (400 ms in unbound) of the best.
The consequence the paper observes: when all of a zone's servers are
within 400 ms of each other, Unbound spreads queries almost evenly, and
only very distant servers are avoided.  Unknown servers are assigned the
UNKNOWN_SERVER_NICENESS default (376 ms) so they are explored without
being favored.
"""

from __future__ import annotations

from .base import ServerSelector
from .infracache import InfrastructureCache


class UnboundSelector(ServerSelector):
    """Random choice within a 400 ms band of the fastest server (Unbound)."""

    name = "unbound"

    #: servers within this much of the best RTT are eligible
    band_ms = 400.0
    #: RTT assumed for servers never measured (unbound's 376 ms default)
    unknown_ms = 376.0
    #: a timeout doubles the estimate, from at least the unknown default
    timeout_floor_ms = unknown_ms
    #: EWMA weight of a new sample
    alpha = 0.5

    __slots__ = ()

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        unknown_ms = self.unknown_ms
        estimates = [
            unknown_ms if entry is None or now >= entry.expires_at else entry.srtt_ms
            for entry in cache.entries(addresses)
        ]
        limit = min(estimates) + self.band_ms
        eligible = [
            address for address, est in zip(addresses, estimates) if est <= limit
        ]
        return self.rng.choice(eligible)
