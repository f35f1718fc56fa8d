"""PowerDNS-Recursor-style selection: fastest with periodic speed tests.

The PowerDNS recursor keeps decaying latency averages ("speedtests") per
server and sends to the fastest, but roughly one query in sixteen goes to
a different server to refresh its measurement.  The result is a strong
latency preference with a steady trickle to the others — one of the
clearly RTT-driven populations in Yu et al. [33].
"""

from __future__ import annotations

from .base import ServerSelector
from .infracache import InfrastructureCache


class PowerDnsSelector(ServerSelector):
    """Lowest decayed-average RTT, with a 1/16 exploration probe."""

    name = "powerdns"

    #: EWMA weight of a new sample
    alpha = 0.4

    __slots__ = ("explore_probability",)

    def __init__(self, rng=None, explore_probability: float = 1.0 / 16.0):
        super().__init__(rng)
        #: probability that a query is a speed-test of a non-best server
        self.explore_probability = explore_probability

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        entries = cache.entries(addresses)
        unknown = [
            address for address, entry in zip(addresses, entries) if entry is None
        ]
        if unknown:
            return self.rng.choice(unknown)
        # PowerDNS decays speedtest values rather than discarding them;
        # an expired infra entry still orders the servers.
        estimates = [entry.srtt_ms for entry in entries]
        best = addresses[estimates.index(min(estimates))]
        others = [addr for addr in addresses if addr != best]
        if others and self.rng.random() < self.explore_probability:
            return self.rng.choice(others)
        return best
