"""Infrastructure cache: per-authoritative latency bookkeeping (§2).

Recursive resolvers remember, per authoritative *address*, a smoothed
round-trip time (SRTT).  BIND keeps entries for about 10 minutes,
Unbound for about 15; entries that expire are forgotten and the server
looks new again.  The paper's §4.4 measures exactly this expiry
behavior, so the cache models per-entry TTL explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class InfraEntry:
    """Latency state for one authoritative server address: the two
    fields server selection reads.

    Live while ``now < expires_at``; the boundary itself is expired.
    Every reader in this package tests that inline.
    """

    srtt_ms: float
    expires_at: float

    def expired(self, now: float) -> bool:
        """True once ``now`` reaches ``expires_at`` (boundary is expired)."""
        return now >= self.expires_at


@dataclass(slots=True)
class InfrastructureCache:
    """SRTT store with per-entry expiry.

    Parameters
    ----------
    ttl_s:
        Entry lifetime from the last update.  BIND's ADB uses ~600 s,
        Unbound ~900 s.
    """

    ttl_s: float = 600.0
    _entries: dict[str, InfraEntry] = field(default_factory=dict)

    def entries(self, addresses: list[str]) -> list[InfraEntry | None]:
        """The stored entry per address, live *or stale*; None if never seen.

        The selectors' one read per ``select``: a single C-level pass
        over the zone's address list.  The caller applies the liveness
        rule (``now < entry.expires_at``) to what it gets back.
        """
        return list(map(self._entries.get, addresses))

    def get(self, address: str, now: float) -> InfraEntry | None:
        """The live entry for an address, or None if absent/expired.

        Expired entries are not returned but are retained as *stale*
        hints (see :meth:`stale_entry`): the paper's §4.4 observes that
        preferences survive the documented cache timeouts, which real
        implementations achieve by not fully discarding latency history.
        """
        entry = self._entries.get(address)
        if entry is None or now >= entry.expires_at:
            return None
        return entry

    #: canonical accessor name; `entry` and `srtt` funnel into `get` so
    #: expiry semantics cannot drift between the single-address accessors.
    def entry(self, address: str, now: float) -> InfraEntry | None:
        """Alias of :meth:`get` — the live entry, or None if expired."""
        return self.get(address, now)

    def stale_entry(self, address: str, now: float) -> InfraEntry | None:
        """The last known entry even if expired (None if never observed)."""
        return self._entries.get(address)

    def srtt(self, address: str, now: float) -> float | None:
        """The live SRTT — exactly when :meth:`entry` returns an entry.

        An address whose entry has reached ``expires_at`` reports None
        here too; it never serves a latency figure :meth:`entry` would
        reject as expired.
        """
        entry = self.get(address, now)
        return entry.srtt_ms if entry is not None else None

    def observe_rtt(
        self, address: str, rtt_ms: float, now: float, alpha: float = 0.3
    ) -> InfraEntry:
        """Fold one RTT sample into the SRTT: new = α·sample + (1-α)·old."""
        entry = self._entries.get(address)
        if entry is None or now >= entry.expires_at:
            entry = self._entries[address] = InfraEntry(rtt_ms, now + self.ttl_s)
            return entry
        entry.srtt_ms = alpha * rtt_ms + (1.0 - alpha) * entry.srtt_ms
        entry.expires_at = now + self.ttl_s
        return entry

    def observe_timeout(
        self, address: str, now: float, floor_ms: float = 400.0
    ) -> InfraEntry:
        """Penalize a timed-out server: double its SRTT (with a floor)."""
        entry = self._entries.get(address)
        if entry is None or now >= entry.expires_at:
            entry = self._entries[address] = InfraEntry(floor_ms, now + self.ttl_s)
        else:
            entry.srtt_ms = max(entry.srtt_ms * 2.0, floor_ms)
            entry.expires_at = now + self.ttl_s
        return entry

    def decay(self, address: str, now: float, factor: float = 0.98) -> None:
        """Decay an (unselected) server's SRTT so it gets re-probed (BIND)."""
        entry = self._entries.get(address)
        if entry is not None and now < entry.expires_at:
            entry.srtt_ms *= factor

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        """Stored entries, *including* expired-but-retained stale hints."""
        return len(self._entries)
