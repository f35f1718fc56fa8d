"""Windows-DNS-style selection: sticky fastest with periodic re-ranking.

Windows Server DNS measures each authoritative once, then locks onto the
fastest and keeps using it; it re-probes the full set only on a coarse
timer (modeled as ``reprobe_interval_s``) or when the favorite times out.
Between re-probes its preference is the strongest of all implementations.
"""

from __future__ import annotations

from .base import ServerSelector
from .infracache import InfrastructureCache


class WindowsSelector(ServerSelector):
    """Lock onto the fastest server; re-rank every ``reprobe_interval_s``."""

    name = "windows"

    reprobe_interval_s = 900.0
    alpha = 0.5

    __slots__ = ("_favorite", "_next_reprobe_at", "_probing")

    def __init__(self, rng=None):
        super().__init__(rng)
        self._favorite: str | None = None
        self._next_reprobe_at = 0.0
        self._probing: list[str] = []

    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        if now >= self._next_reprobe_at:
            # Begin a probe round: visit every server once, then re-rank.
            self._probing = [
                address
                for address, entry in zip(addresses, cache.entries(addresses))
                if entry is None or now >= entry.expires_at
            ] or list(addresses)
            self.rng.shuffle(self._probing)
            self._next_reprobe_at = now + self.reprobe_interval_s
            self._favorite = None
        if self._probing:
            return self._probing.pop()
        if self._favorite is None or self._favorite not in addresses:
            # Lowest live SRTT, first listed on a tie; with nothing
            # measured, the first server.
            live = [
                (entry.srtt_ms, index)
                for index, entry in enumerate(cache.entries(addresses))
                if entry is not None and now < entry.expires_at
            ]
            self._favorite = addresses[min(live)[1] if live else 0]
        return self._favorite

    def on_timeout(self, address, addresses, cache, now) -> None:
        super().on_timeout(address, addresses, cache, now)
        if address == self._favorite:
            self._favorite = None  # fail over immediately
