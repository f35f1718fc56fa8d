"""Record cache with TTL expiry, including negative caching (RFC 2308).

The paper defeats this cache with unique labels and a 5-second TTL; the
passive-trace generators rely on it to reproduce warm-cache behavior.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..dns.name import Name
from ..dns.records import ResourceRecord
from ..dns.types import RRType


@dataclass(slots=True)
class CacheEntry:
    """Positive entry: the records and when they expire."""

    records: list[ResourceRecord]
    expires_at: float


@dataclass(slots=True)
class NegativeEntry:
    """Negative entry: NXDOMAIN or NODATA, per RFC 2308."""

    nxdomain: bool
    expires_at: float


@dataclass(slots=True)
class RecordCache:
    """TTL-driven cache of positive and negative answers.

    Expiry can be keyed off a bound simulation clock
    (:meth:`bind_clock` + :meth:`lookup`/:meth:`lookup_negative`): the
    resolver binds its network's clock once and lookups read
    ``clock.now`` — a plain attribute kept current by the event kernel's
    heap — instead of threading a ``now`` argument through every call.
    The explicit-``now`` methods remain for unbound use.

    Memory is bounded by what is *alive*, not by what was ever asked:
    an expiry-ordered heap sits beside the two tables, every
    :meth:`put`/:meth:`put_negative` first drops whatever has expired at
    its ``now``, and ``max_entries`` caps positive and negative entries
    together (the earliest-expiring entry goes first).  An expired entry
    already reads as a miss, so sweeping it is invisible to readers —
    **provided ``now`` never decreases** from one call to the next, which
    the simulation clock guarantees; a caller that rewinds ``now`` may
    miss an entry a later-stamped put already swept.
    """

    max_entries: int = 100_000
    _positive: dict[tuple[Name, RRType], CacheEntry] = field(default_factory=dict)
    _negative: dict[tuple[Name, RRType], NegativeEntry] = field(default_factory=dict)
    #: min-heap of ``(expires_at, seq, table, key)``, one item per store;
    #: an item whose entry was since replaced or removed is stale and
    #: skipped when popped (its ``expires_at`` no longer matches).
    _expiry: list[tuple] = field(default_factory=list)
    _stored: int = 0
    hits: int = 0
    misses: int = 0
    clock: object | None = None

    def bind_clock(self, clock) -> None:
        """Key expiry off ``clock.now`` for the bound-lookup methods."""
        self.clock = clock

    def lookup(self, name: Name, rrtype: RRType) -> CacheEntry | None:
        """Positive lookup at the bound clock's current instant."""
        return self.get(name, rrtype, self.clock.now)

    def lookup_negative(self, name: Name, rrtype: RRType) -> NegativeEntry | None:
        """Negative lookup at the bound clock's current instant."""
        return self.get_negative(name, rrtype, self.clock.now)

    def get(self, name: Name, rrtype: RRType, now: float) -> CacheEntry | None:
        entry = self._positive.get((name, rrtype))
        if entry is None:
            self.misses += 1
            return None
        if now >= entry.expires_at:
            del self._positive[(name, rrtype)]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def get_negative(self, name: Name, rrtype: RRType, now: float) -> NegativeEntry | None:
        if not self._negative:  # the common case; spares hashing the name
            return None
        entry = self._negative.get((name, rrtype))
        if entry is None:
            return None
        if now >= entry.expires_at:
            del self._negative[(name, rrtype)]
            return None
        return entry

    def put(
        self, name: Name, rrtype: RRType, records: list[ResourceRecord], now: float
    ) -> None:
        """Cache a positive answer for min(record TTLs) seconds."""
        if not records:
            return
        key = (name, rrtype)
        ttl = min(record.ttl for record in records)
        if self._negative:
            self._negative.pop(key, None)
        self._store(self._positive, key, CacheEntry(records, now + ttl), now)

    def put_negative(
        self, name: Name, rrtype: RRType, nxdomain: bool, ttl: int, now: float
    ) -> None:
        self._store(
            self._negative, (name, rrtype), NegativeEntry(nxdomain, now + ttl), now
        )

    def _store(self, table: dict, key: tuple[Name, RRType], entry, now: float) -> None:
        """Sweep what expired at ``now``, make room, then store ``entry``."""
        heap = self._expiry
        positive, negative = self._positive, self._negative
        while heap and heap[0][0] <= now:
            self._pop_earliest()
        if key not in table:
            while heap and len(positive) + len(negative) >= self.max_entries:
                self._pop_earliest()
        table[key] = entry
        self._stored += 1
        heapq.heappush(heap, (entry.expires_at, self._stored, table, key))
        if len(heap) > 2 * (len(positive) + len(negative)) + 64:
            # Re-puts of live keys leave stale items behind; rebuilding
            # from the tables keeps the heap O(live entries).
            live = [
                (table, key, entry)
                for table in (positive, negative)
                for key, entry in table.items()
            ]
            heap[:] = [
                (entry.expires_at, seq, table, key)
                for seq, (table, key, entry) in enumerate(live)
            ]
            heapq.heapify(heap)

    def _pop_earliest(self) -> None:
        """Pop the heap's head and drop its entry if that entry is still it."""
        expires_at, _seq, table, key = heapq.heappop(self._expiry)
        entry = table.get(key)
        if entry is not None and entry.expires_at == expires_at:
            del table[key]

    def flush(self) -> None:
        self._positive.clear()
        self._negative.clear()
        self._expiry.clear()

    def __len__(self) -> int:
        return len(self._positive) + len(self._negative)
