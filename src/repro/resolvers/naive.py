"""Cache-less selection strategies: random, round-robin, and sticky.

Embedded forwarders (home routers, CPE) often have no infrastructure
cache at all (§2).  Three behaviors cover what testbeds observe:
uniform random per query, strict rotation, and "sticky" — pick one
server and stay with it until it fails.
"""

from __future__ import annotations

from .base import ServerSelector
from .infracache import InfrastructureCache


class RandomSelector(ServerSelector):
    """Uniform random choice per query (djbdns dnscache behavior)."""

    name = "random"
    uses_infra_cache = False

    __slots__ = ()

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        return self.rng.choice(addresses)


class RoundRobinSelector(ServerSelector):
    """Strict rotation over the address list."""

    name = "roundrobin"
    uses_infra_cache = False

    __slots__ = ("_index",)

    def __init__(self, rng=None):
        super().__init__(rng)
        self._index: int | None = None

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        if self._index is None:
            # Start at a random position so a population of round-robin
            # resolvers does not move in lockstep.
            self._index = self.rng.randrange(len(addresses))
        address = addresses[self._index % len(addresses)]
        self._index += 1
        return address


class StickySelector(ServerSelector):
    """Pick one server (at random) and never leave it unless it times out.

    This is the dnsmasq-like behavior that produces *strong* preferences
    uncorrelated with latency — visible in Figure 4 as VPs pinned to the
    slower authoritative.
    """

    name = "sticky"
    uses_infra_cache = False

    #: consecutive failures of the current server before switching —
    #: isolated packet loss does not move a dnsmasq-style forwarder
    failure_streak_to_switch = 3

    __slots__ = ("_choice", "_failures")

    def __init__(self, rng=None):
        super().__init__(rng)
        self._choice: str | None = None
        self._failures = 0

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        if self._choice is None or self._choice not in addresses:
            self._choice = self.rng.choice(addresses)
        return self._choice

    def on_response(self, address, rtt_ms, addresses, cache, now) -> None:
        super().on_response(address, rtt_ms, addresses, cache, now)
        if address == self._choice:
            self._failures = 0

    def on_timeout(self, address, addresses, cache, now) -> None:
        super().on_timeout(address, addresses, cache, now)
        if address == self._choice:
            self._failures += 1
            if self._failures >= self.failure_streak_to_switch:
                alternatives = [addr for addr in addresses if addr != address]
                self._choice = (
                    self.rng.choice(alternatives) if alternatives else None
                )
                self._failures = 0
