"""Resource records and RRsets."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterator

from .errors import TruncatedMessageError
from .name import CompressionMap, Name
from .rdata import Rdata, parse_rdata
from .types import RRCLASS_BY_CODE, RRTYPE_BY_CODE, RRClass, RRType

_RR_FIXED_STRUCT = struct.Struct("!HHI")
_RR_HEADER_STRUCT = struct.Struct("!HHIH")
_RDLENGTH_STRUCT = struct.Struct("!H")


@dataclass(frozen=True)
class ResourceRecord:
    """One resource record: owner name, type, class, TTL, and RDATA."""

    name: Name
    rrtype: RRType
    rrclass: RRClass
    ttl: int
    rdata: Rdata

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
        """Append this record to a whole-message buffer (fast path)."""
        self.name.wire_into(out, compress)
        rdata = self.rdata.to_wire(compress, len(out) + 10)  # after RDLENGTH
        out += _RR_HEADER_STRUCT.pack(
            int(self.rrtype), int(self.rrclass), self.ttl, len(rdata)
        )
        out += rdata

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

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        return replace(self, ttl=ttl)

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

    @classmethod
    def from_records(cls, records: list[ResourceRecord]) -> "RRset":
        if not records:
            raise ValueError("cannot build an RRset from zero records")
        first = records[0]
        rrset = cls(first.name, first.rrtype, first.rrclass, first.ttl)
        for record in records:
            if (record.name, record.rrtype, record.rrclass) != (
                first.name, first.rrtype, first.rrclass,
            ):
                raise ValueError("records do not share (name, type, class)")
            rrset.add(record.rdata, record.ttl)
        return rrset


def group_rrsets(records: list[ResourceRecord]) -> list[RRset]:
    """Group a record list into RRsets, preserving first-seen order."""
    groups: dict[tuple, RRset] = {}
    for record in records:
        key = (record.name, record.rrtype, record.rrclass)
        rrset = groups.get(key)
        if rrset is None:
            rrset = RRset(record.name, record.rrtype, record.rrclass, record.ttl)
            groups[key] = rrset
        rrset.add(record.rdata, record.ttl)
    return list(groups.values())
