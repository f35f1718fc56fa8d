"""Record cache with TTL expiry, including negative caching (RFC 2308).

The paper defeats this cache with unique labels and a 5-second TTL; the
passive-trace generators rely on it to reproduce warm-cache behavior.

An entry holds only atoms.  A key is one bytes object: the owner's wire,
case-folded, then the type's two octets.  A positive value is
``(expires_at, wire)``: the records laid end to end uncompressed, each
its owner's wire and its packed tail (bytes that a decoded or served
record already keeps) after its rdata's type code.  A negative value is
``(expires_at, nxdomain)``.  A heap item is ``(expires_at, seq, table
index, key)``.  The cycle collector stops tracking a tuple or dict of
atoms the first time it passes over one, so the entry each resolver of
a campaign keeps between ticks (one that can never be hit at the
paper's design point) costs full collections nothing; kept as objects,
it was seven tracked objects (name, record, its ``__dict__``, list,
entry, key and heap tuples) that every full collection re-walked.  No
tuple nests another: one that does stays tracked through a collection
that visits it before the inner one.  A hit decodes the wire into a
:class:`CacheEntry` whose records equal, in order, the records put.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field

from ..dns.name import Name
from ..dns.rdata import GenericRdata, parse_rdata
from ..dns.records import ResourceRecord
from ..dns.types import RRCLASS_BY_CODE, RRTYPE_BY_CODE, RRType

_POSITIVE, _NEGATIVE = 0, 1
_CODE = struct.Struct("!H")
_HEADER = struct.Struct("!HHIH")


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


def _key(name: Name, rrtype: RRType) -> bytes:
    # Label lengths are below 64, so lower() folds only the labels.
    return name.to_wire().lower() + _CODE.pack(rrtype)


def _records_wire(records: list[ResourceRecord]) -> bytes:
    """Each record as its rdata's type code, then its uncompressed wire.

    The code beside the record's own TYPE is what lets a record whose
    rdata is of another type (or a :class:`GenericRdata`) decode back
    to an equal one."""
    out = bytearray()
    for record in records:
        rdata = record.rdata
        code = rdata.type_code if type(rdata) is GenericRdata else rdata.rrtype
        out += _CODE.pack(code)
        record.wire_into(out)
    return bytes(out)


def _wire_records(wire: bytes) -> list[ResourceRecord]:
    records = []
    cursor = 0
    while cursor < len(wire):
        (code,) = _CODE.unpack_from(wire, cursor)
        name, cursor = Name.from_wire(wire, cursor + 2)
        rrtype, rrclass, ttl, length = _HEADER.unpack_from(wire, cursor)
        cursor += 10
        rdata = parse_rdata(code, wire, cursor, length)
        cursor += length
        records.append(ResourceRecord(
            name, RRTYPE_BY_CODE.get(rrtype, rrtype),
            RRCLASS_BY_CODE.get(rrclass, rrclass), ttl, rdata,
        ))
    return records


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
    an expiry-ordered heap sits beside the two tables, every read and
    every store first drops whatever has expired at its ``now``, and
    ``max_entries`` caps positive and negative entries together (the
    earliest-expiring entry goes first).  A sweep that empties both
    tables replaces all three containers with fresh ones, since a dict
    keeps its grown table after its last key is deleted.  Sweeping at
    the read is what keeps a campaign's peak free of last tick's
    entries: a resolution looks its name up before it allocates
    anything in flight.  An expired entry already reads as a miss, so
    sweeping it is invisible to readers — **provided ``now`` never
    decreases** from one call to the next.  A resolver binds the
    network clock, which the event kernel only moves forward; the
    arrival time an authoritative handler is stamped with can step
    back, but it is another clock and never reaches this cache.  A
    caller that rewinds ``now`` may miss an entry a later-stamped call
    already swept.
    """

    max_entries: int = 100_000
    #: ``key -> (expires_at, records wire)``
    _positive: dict[bytes, tuple[float, bytes]] = field(default_factory=dict)
    #: ``key -> (expires_at, nxdomain)``
    _negative: dict[bytes, tuple[float, bool]] = field(default_factory=dict)
    #: min-heap of ``(expires_at, seq, table index, key)``, one item per
    #: store; an item whose entry was since replaced or removed is stale
    #: and skipped when popped (its ``expires_at`` no longer matches).
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
        if self._expiry and self._expiry[0][0] <= now:
            self._sweep(now)
        entry = self._positive.get(_key(name, rrtype))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return CacheEntry(_wire_records(entry[1]), entry[0])

    def get_negative(self, name: Name, rrtype: RRType, now: float) -> NegativeEntry | None:
        if self._expiry and self._expiry[0][0] <= now:
            self._sweep(now)
        if not self._negative:  # the common case; spares building the key
            return None
        entry = self._negative.get(_key(name, rrtype))
        return None if entry is None else NegativeEntry(entry[1], entry[0])

    def put(
        self, name: Name, rrtype: RRType, records: list[ResourceRecord], now: float
    ) -> None:
        """Cache a positive answer for min(record TTLs) seconds."""
        if not records:
            return
        key = _key(name, rrtype)
        ttl = min(record.ttl for record in records)
        if self._negative:
            self._negative.pop(key, None)
        self._store(_POSITIVE, key, now + ttl, _records_wire(records), now)

    def put_negative(
        self, name: Name, rrtype: RRType, nxdomain: bool, ttl: int, now: float
    ) -> None:
        self._store(_NEGATIVE, _key(name, rrtype), now + ttl, bool(nxdomain), now)

    def _store(
        self, index: int, key: bytes, expires_at: float, payload, now: float
    ) -> None:
        """Sweep what expired at ``now``, make room, then store the entry."""
        if self._expiry and self._expiry[0][0] <= now:
            self._sweep(now)
        heap, positive, negative = self._expiry, self._positive, self._negative
        table = negative if index else positive
        if key not in table:
            while heap and len(positive) + len(negative) >= self.max_entries:
                self._pop_earliest()
        table[key] = (expires_at, payload)
        self._stored += 1
        heapq.heappush(heap, (expires_at, self._stored, index, key))
        if len(heap) > 2 * (len(positive) + len(negative)) + 64:
            # Re-puts of live keys leave stale items behind; rebuilding
            # from the tables keeps the heap O(live entries).
            live = [
                (entry[0], index, key)
                for index, table in enumerate((positive, negative))
                for key, entry in table.items()
            ]
            heap[:] = [
                (expires_at, seq, index, key)
                for seq, (expires_at, index, key) in enumerate(live)
            ]
            heapq.heapify(heap)

    def _sweep(self, now: float) -> None:
        """Drop every entry expired at ``now``; free the containers once
        nothing is left (an entry never outlives its TTL by a tick)."""
        heap = self._expiry
        while heap and heap[0][0] <= now:
            self._pop_earliest()
        if not (self._positive or self._negative):
            # Fresh containers free what the emptied ones had grown to.
            self._positive, self._negative, self._expiry = {}, {}, []

    def _pop_earliest(self) -> None:
        """Pop the heap's head and drop its entry if that entry is still it."""
        expires_at, _seq, index, key = heapq.heappop(self._expiry)
        table = self._negative if index else self._positive
        entry = table.get(key)
        if entry is not None and entry[0] == expires_at:
            del table[key]

    def flush(self) -> None:
        self._positive.clear()
        self._negative.clear()
        self._expiry.clear()

    def __len__(self) -> int:
        return len(self._positive) + len(self._negative)
