"""Resource records and RRsets."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator

from .errors import TruncatedMessageError
from .name import CompressionMap, Name
from .rdata import Rdata, parse_rdata
from .types import RRCLASS_BY_CODE, RRTYPE_BY_CODE, RRClass, RRType

_RR_FIXED_STRUCT = struct.Struct("!HHI")
_RR_HEADER_STRUCT = struct.Struct("!HHIH")
_RDLENGTH_STRUCT = struct.Struct("!H")


@dataclass(frozen=True, init=False)
class ResourceRecord:
    """One resource record: owner name, type, class, TTL, and RDATA.

    A record is immutable, so everything after its owner name that no
    compression pointer can change — TYPE / CLASS / TTL, and for
    :attr:`~repro.dns.rdata.Rdata.fixed_wire` rdata also RDLENGTH and
    the rdata bytes — is packed on first encode and kept on the instance
    (outside the fields: equality, hashing and ``repr`` do not see it).
    A frozen zone hands out the same records to every answer
    (:meth:`repro.dns.zone.Zone.records`), so encoding an answer
    compresses its names and appends bytes packed once.
    """

    name: Name
    rrtype: RRType
    rrclass: RRClass
    ttl: int
    rdata: Rdata

    #: the packed wire after the owner name, once encoded (not a field)
    _tail = None

    def __init__(
        self, name: Name, rrtype: RRType, rrclass: RRClass, ttl: int, rdata: Rdata
    ):
        # Frozen: each field is written once, into the instance dict, as
        # the generated __init__ would through object.__setattr__ — at a
        # third of the cost, which every decoded record pays.
        state = self.__dict__
        state["name"] = name
        state["rrtype"] = rrtype
        state["rrclass"] = rrclass
        state["ttl"] = ttl
        state["rdata"] = rdata

    def to_wire(self, compress: CompressionMap | None = None, offset: int = 0) -> bytes:
        out = bytearray(self.name.to_wire(compress, offset))
        out += _RR_FIXED_STRUCT.pack(int(self.rrtype), int(self.rrclass), self.ttl)
        rdata_offset = offset + len(out) + 2  # after the RDLENGTH field
        rdata = self.rdata.to_wire(compress, rdata_offset)
        out += _RDLENGTH_STRUCT.pack(len(rdata))
        out += rdata
        return bytes(out)

    def wire_into(
        self, out: bytearray, compress: CompressionMap | None = None
    ) -> None:
        """Append this record to a whole-message buffer.

        Only the owner name (and the names inside rdata that may
        compress) are encoded per call; the rest is the cached tail.
        """
        self.name.wire_into(out, compress)
        out += self._tail or self._pack_tail()
        rdata = self.rdata
        if not rdata.fixed_wire:
            start = len(out)
            out += b"\0\0"  # RDLENGTH, patched once the rdata is in
            rdata.wire_into(out, compress)
            _RDLENGTH_STRUCT.pack_into(out, start, len(out) - start - 2)

    def _pack_tail(self) -> bytes:
        rdata = self.rdata
        if rdata.fixed_wire:
            data = rdata.to_wire()
            tail = _RR_HEADER_STRUCT.pack(
                int(self.rrtype), int(self.rrclass), self.ttl, len(data)
            ) + data
        else:
            tail = _RR_FIXED_STRUCT.pack(
                int(self.rrtype), int(self.rrclass), self.ttl
            )
        self.__dict__["_tail"] = tail
        return tail

    def _with_owner(self, name: Name) -> "ResourceRecord":
        """This record under another owner, sharing its packed tail."""
        if self._tail is None:
            self._pack_tail()
        record = object.__new__(ResourceRecord)
        record.__dict__.update(self.__dict__, name=name)
        return record

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, _memo: dict | None = None
    ) -> tuple["ResourceRecord", int]:
        name, cursor = Name.from_wire(wire, offset, _memo)
        if cursor + 10 > len(wire):
            raise TruncatedMessageError("record header truncated")
        type_code, class_code, ttl, rdlength = _RR_HEADER_STRUCT.unpack_from(wire, cursor)
        cursor += 10
        if cursor + rdlength > len(wire):
            raise TruncatedMessageError("rdata truncated")
        rdata = parse_rdata(type_code, wire, cursor, rdlength)
        cursor += rdlength
        rrtype = RRTYPE_BY_CODE.get(type_code, type_code)
        rrclass = RRCLASS_BY_CODE.get(class_code, class_code)
        return cls(name, rrtype, rrclass, ttl, rdata), cursor

    def to_text(self) -> str:
        rrtype = self.rrtype.to_text() if isinstance(self.rrtype, RRType) else f"TYPE{self.rrtype}"
        rrclass = self.rrclass.to_text() if isinstance(self.rrclass, RRClass) else f"CLASS{self.rrclass}"
        return f"{self.name.to_text()} {self.ttl} {rrclass} {rrtype} {self.rdata.to_text()}"


@dataclass
class RRset:
    """All records sharing (name, type, class); the unit of DNS answers."""

    name: Name
    rrtype: RRType
    rrclass: RRClass
    ttl: int
    rdatas: list[Rdata] = field(default_factory=list)

    #: the records tuple kept by :meth:`repro.dns.zone.Zone.records`
    #: (not a field)
    _records = None

    def add(self, rdata: Rdata, ttl: int | None = None) -> None:
        """Add one RDATA; the RRset TTL is the minimum of member TTLs."""
        if ttl is not None:
            self.ttl = min(self.ttl, ttl) if self.rdatas else ttl
        if rdata not in self.rdatas:
            self.rdatas.append(rdata)

    def records(self) -> list[ResourceRecord]:
        return [
            ResourceRecord(self.name, self.rrtype, self.rrclass, self.ttl, rdata)
            for rdata in self.rdatas
        ]

    def __iter__(self) -> Iterator[Rdata]:
        return iter(self.rdatas)

    def __len__(self) -> int:
        return len(self.rdatas)

    def __bool__(self) -> bool:
        return bool(self.rdatas)
