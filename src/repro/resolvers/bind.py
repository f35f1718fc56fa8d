"""BIND-style selection: smoothed RTT with decay of unused servers.

BIND 9 keeps an SRTT per server in its address database (ADB) and sends
each query to the server with the lowest SRTT.  Two details keep it from
locking on forever: servers it has never tried get a small random SRTT so
they are probed early, and every time a server is *not* chosen its SRTT
is multiplicatively decayed, so a neglected server eventually looks
attractive again.  Entries age out of the ADB after ~10 minutes [3].
"""

from __future__ import annotations

from .base import ServerSelector
from .infracache import InfrastructureCache


class BindSelector(ServerSelector):
    """Lowest-SRTT selection with 0.98 decay of the unchosen (BIND 9)."""

    name = "bind"

    #: fresh servers draw an SRTT in [0, untried_max_ms) so they win once
    untried_max_ms = 10.0
    #: EWMA weight of a new sample
    alpha = 0.3

    __slots__ = ("decay_factor",)

    def __init__(self, rng=None, decay_factor: float = 0.98):
        super().__init__(rng)
        #: multiplicative decay applied to servers that were not selected
        self.decay_factor = decay_factor

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        entries = cache.entries(addresses)
        best = -1
        best_srtt = float("inf")
        for index, entry in enumerate(entries):
            if entry is None or now >= entry.expires_at:
                if entry is not None:
                    # ADB entry expired, but the implementation retains
                    # latency history — the behavior behind the paper's
                    # §4.4 finding that preferences outlive the timeout.
                    seed = entry.srtt_ms
                else:
                    # Never tried: seed a small random SRTT so the server
                    # is probed ahead of everything already measured.
                    seed = self.rng.uniform(0.0, self.untried_max_ms)
                entry = entries[index] = cache.observe_rtt(
                    addresses[index], seed, now, alpha=1.0
                )
            srtt = entry.srtt_ms
            if srtt < best_srtt:
                best_srtt = srtt
                best = index
        assert best >= 0
        # Every server not chosen decays, so a neglected one is retried.
        chosen = entries[best]
        decay_factor = self.decay_factor
        for entry in entries:
            if entry is not chosen and now < entry.expires_at:
                entry.srtt_ms *= decay_factor
        return addresses[best]
