"""RDATA implementations for the record types the reproduction needs.

Each RDATA class knows its wire encoding, presentation format, and how to
parse both.  Unknown types fall back to :class:`GenericRdata`, which
round-trips raw bytes (RFC 3597 style).
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import ClassVar

from .errors import TruncatedMessageError, WireFormatError
from .name import CompressionMap, Name
from .types import RRType

_RDATA_REGISTRY: dict[int, type["Rdata"]] = {}

_SOA_COUNTERS = struct.Struct("!IIIII")


def register(rrtype: RRType):
    """Class decorator: bind an Rdata class to its RR type code."""

    def wrap(cls: type["Rdata"]) -> type["Rdata"]:
        cls.rrtype = rrtype
        _RDATA_REGISTRY[int(rrtype)] = cls
        return cls

    return wrap


class Rdata:
    """Base class for record data."""

    rrtype: ClassVar[RRType]
    #: True when :meth:`to_wire` ignores the compression map, so the bytes
    #: are a function of the value alone and a record may keep them (see
    #: :meth:`~repro.dns.records.ResourceRecord.wire_into`).
    fixed_wire: ClassVar[bool] = False

    def to_wire(self, compress: CompressionMap | None = None, offset: int = 0) -> bytes:
        raise NotImplementedError

    def wire_into(
        self, out: bytearray, compress: CompressionMap | None = None
    ) -> None:
        """Append the wire form to a whole-message buffer; the rdata
        begins at message offset ``len(out)``."""
        out += self.to_wire(compress, len(out))

    def to_text(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "Rdata":
        raise NotImplementedError


def parse_rdata(rrtype: int, wire: bytes, offset: int, rdlength: int) -> Rdata:
    """Decode RDATA of any type, falling back to a raw-bytes wrapper."""
    if offset + rdlength > len(wire):
        raise TruncatedMessageError("rdata runs past end of message")
    impl = _RDATA_REGISTRY.get(int(rrtype))
    if impl is None:
        return GenericRdata(int(rrtype), wire[offset : offset + rdlength])
    return impl.from_wire(wire, offset, rdlength)


def rdata_from_text(rrtype: RRType, tokens: list[str], origin: Name) -> Rdata:
    impl = _RDATA_REGISTRY.get(int(rrtype))
    if impl is None:
        raise WireFormatError(f"no text parser for type {rrtype}")
    return impl.from_text(tokens, origin)


def _name_from_token(token: str, origin: Name) -> Name:
    """Resolve a possibly-relative name token against ``origin``."""
    if token == "@":
        return origin
    if token.endswith("."):
        return Name.from_text(token)
    return Name.from_text(token).concatenate(origin)


@dataclass(frozen=True)
class GenericRdata(Rdata):
    """Raw RDATA for types without a dedicated implementation."""

    type_code: int
    data: bytes

    fixed_wire = True

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        return self.data

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"


@register(RRType.A)
@dataclass(frozen=True)
class A(Rdata):
    """IPv4 address record."""

    address: str

    fixed_wire = True

    def __post_init__(self):
        ipaddress.IPv4Address(self.address)  # validate

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        return ipaddress.IPv4Address(self.address).packed

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "A":
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 bytes, got {rdlength}")
        return cls(str(ipaddress.IPv4Address(wire[offset : offset + 4])))

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "A":
        return cls(tokens[0])


@register(RRType.AAAA)
@dataclass(frozen=True)
class AAAA(Rdata):
    """IPv6 address record."""

    address: str

    fixed_wire = True

    def __post_init__(self):
        ipaddress.IPv6Address(self.address)

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        return ipaddress.IPv6Address(self.address).packed

    def to_text(self) -> str:
        return self.address

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return cls(str(ipaddress.IPv6Address(wire[offset : offset + 16])))

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "AAAA":
        return cls(tokens[0])


@dataclass(frozen=True)
class _TargetRdata(Rdata):
    """RDATA that is exactly one compressible domain name."""

    target: Name

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        return self.target.to_wire(compress, offset)

    def wire_into(self, out: bytearray, compress=None) -> None:
        self.target.wire_into(out, compress)

    def to_text(self) -> str:
        return self.target.to_text()

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int):
        name, _ = Name.from_wire(wire, offset)
        return cls(name)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name):
        return cls(_name_from_token(tokens[0], origin))


@register(RRType.NS)
@dataclass(frozen=True)
class NS(_TargetRdata):
    """Name server record."""


@register(RRType.CNAME)
@dataclass(frozen=True)
class CNAME(_TargetRdata):
    """Canonical-name alias record."""


@register(RRType.PTR)
@dataclass(frozen=True)
class PTR(_TargetRdata):
    """Pointer record."""


@register(RRType.MX)
@dataclass(frozen=True)
class MX(Rdata):
    """Mail exchange record."""

    preference: int
    exchange: Name

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        prefix = struct.pack("!H", self.preference)
        return prefix + self.exchange.to_wire(compress, offset + 2)

    def wire_into(self, out: bytearray, compress=None) -> None:
        out += struct.pack("!H", self.preference)
        self.exchange.wire_into(out, compress)

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "MX":
        if rdlength < 3:
            raise WireFormatError("MX rdata too short")
        (preference,) = struct.unpack_from("!H", wire, offset)
        exchange, _ = Name.from_wire(wire, offset + 2)
        return cls(preference, exchange)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "MX":
        return cls(int(tokens[0]), _name_from_token(tokens[1], origin))


@register(RRType.TXT)
@dataclass(frozen=True)
class TXT(Rdata):
    """Text record: one or more character-strings (each ≤255 bytes)."""

    strings: tuple[bytes, ...]

    fixed_wire = True

    def __post_init__(self):
        if not self.strings:
            raise WireFormatError("TXT needs at least one string")
        for s in self.strings:
            if len(s) > 255:
                raise WireFormatError("TXT character-string exceeds 255 bytes")

    @classmethod
    def from_value(cls, value: str) -> "TXT":
        """Build from a single python string, splitting at 255-byte chunks."""
        raw = value.encode()
        chunks = tuple(raw[i : i + 255] for i in range(0, len(raw), 255)) or (b"",)
        return cls(chunks)

    @property
    def value(self) -> str:
        """All character-strings joined and decoded (lossy-safe)."""
        return b"".join(self.strings).decode(errors="replace")

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        out = bytearray()
        for s in self.strings:
            out.append(len(s))
            out += s
        return bytes(out)

    def to_text(self) -> str:
        parts = []
        for s in self.strings:
            escaped = s.decode(errors="replace").replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'"{escaped}"')
        return " ".join(parts)

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "TXT":
        end = offset + rdlength
        strings: list[bytes] = []
        cursor = offset
        while cursor < end:
            length = wire[cursor]
            cursor += 1
            if cursor + length > end:
                raise TruncatedMessageError("TXT string runs past rdata")
            strings.append(wire[cursor : cursor + length])
            cursor += length
        if not strings:
            strings.append(b"")
        return cls(tuple(strings))

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "TXT":
        strings = []
        for token in tokens:
            if token.startswith('"') and token.endswith('"') and len(token) >= 2:
                token = token[1:-1]
            strings.append(token.replace('\\"', '"').replace("\\\\", "\\").encode())
        return cls(tuple(strings))


@register(RRType.SOA)
@dataclass(frozen=True)
class SOA(Rdata):
    """Start-of-authority record."""

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        out = bytearray(self.mname.to_wire(compress, offset))
        out += self.rname.to_wire(compress, offset + len(out))
        out += _SOA_COUNTERS.pack(
            self.serial, self.refresh, self.retry, self.expire, self.minimum
        )
        return bytes(out)

    def wire_into(self, out: bytearray, compress=None) -> None:
        self.mname.wire_into(out, compress)
        self.rname.wire_into(out, compress)
        out += _SOA_COUNTERS.pack(
            self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "SOA":
        mname, cursor = Name.from_wire(wire, offset)
        rname, cursor = Name.from_wire(wire, cursor)
        if cursor + 20 > len(wire):
            raise TruncatedMessageError("SOA counters truncated")
        serial, refresh, retry, expire, minimum = _SOA_COUNTERS.unpack_from(wire, cursor)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "SOA":
        if len(tokens) != 7:
            raise WireFormatError(f"SOA needs 7 fields, got {len(tokens)}")
        return cls(
            _name_from_token(tokens[0], origin),
            _name_from_token(tokens[1], origin),
            int(tokens[2]),
            int(tokens[3]),
            int(tokens[4]),
            int(tokens[5]),
            int(tokens[6]),
        )


@register(RRType.SRV)
@dataclass(frozen=True)
class SRV(Rdata):
    """Service locator record."""

    priority: int
    weight: int
    port: int
    target: Name

    fixed_wire = True  # the target is never compressed

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        prefix = struct.pack("!HHH", self.priority, self.weight, self.port)
        # RFC 2782: the SRV target must not be compressed.
        return prefix + self.target.to_wire(None)

    def to_text(self) -> str:
        return f"{self.priority} {self.weight} {self.port} {self.target.to_text()}"

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "SRV":
        if rdlength < 7:
            raise WireFormatError("SRV rdata too short")
        priority, weight, port = struct.unpack_from("!HHH", wire, offset)
        target, _ = Name.from_wire(wire, offset + 6)
        return cls(priority, weight, port, target)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "SRV":
        return cls(
            int(tokens[0]), int(tokens[1]), int(tokens[2]),
            _name_from_token(tokens[3], origin),
        )


@register(RRType.OPT)
@dataclass(frozen=True)
class OPT(Rdata):
    """EDNS0 pseudo-record RDATA (RFC 6891): raw option bytes.

    The interesting EDNS fields (payload size, extended rcode, flags)
    live in the record's CLASS and TTL, handled by
    :class:`~repro.dns.message.Message`; the RDATA is the option list,
    which we keep opaque.
    """

    options: bytes = b""

    fixed_wire = True

    @staticmethod
    def pack_options(options: list[tuple[int, bytes]]) -> bytes:
        """(option-code, payload) pairs as OPT RDATA bytes."""
        out = bytearray()
        for code, payload in options:
            out += struct.pack("!HH", code, len(payload))
            out += payload
        return bytes(out)

    @classmethod
    def encode_options(cls, options: list[tuple[int, bytes]]) -> "OPT":
        """Build OPT RDATA from (option-code, payload) pairs."""
        return cls(cls.pack_options(options))

    @staticmethod
    def unpack_options(data: bytes) -> list[tuple[int, bytes]]:
        """Parse OPT RDATA bytes into (option-code, payload) pairs."""
        options: list[tuple[int, bytes]] = []
        cursor = 0
        while cursor + 4 <= len(data):
            code, length = struct.unpack_from("!HH", data, cursor)
            cursor += 4
            if cursor + length > len(data):
                raise WireFormatError("EDNS option runs past OPT rdata")
            options.append((code, data[cursor : cursor + length]))
            cursor += length
        if cursor != len(data):
            raise WireFormatError("trailing bytes in OPT rdata")
        return options

    def decode_options(self) -> list[tuple[int, bytes]]:
        """Parse the RDATA into (option-code, payload) pairs."""
        return self.unpack_options(self.options)

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        return self.options

    def to_text(self) -> str:
        return f"\\# {len(self.options)} {self.options.hex()}" if self.options else "\\# 0"

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "OPT":
        return cls(wire[offset : offset + rdlength])

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "OPT":
        raise WireFormatError("OPT is a pseudo-record and cannot appear in zone files")


@register(RRType.CAA)
@dataclass(frozen=True)
class CAA(Rdata):
    """Certification Authority Authorization record (RFC 8659)."""

    flags: int
    tag: str
    value: str

    fixed_wire = True

    def __post_init__(self):
        if not 0 <= self.flags <= 255:
            raise WireFormatError(f"CAA flags {self.flags} out of range")
        if not self.tag or len(self.tag) > 255 or not self.tag.isalnum():
            raise WireFormatError(f"bad CAA tag {self.tag!r}")

    def to_wire(self, compress=None, offset: int = 0) -> bytes:
        tag = self.tag.encode()
        return bytes([self.flags, len(tag)]) + tag + self.value.encode()

    def to_text(self) -> str:
        return f'{self.flags} {self.tag} "{self.value}"'

    @classmethod
    def from_wire(cls, wire: bytes, offset: int, rdlength: int) -> "CAA":
        if rdlength < 2:
            raise WireFormatError("CAA rdata too short")
        flags = wire[offset]
        tag_length = wire[offset + 1]
        if 2 + tag_length > rdlength:
            raise TruncatedMessageError("CAA tag runs past rdata")
        tag = wire[offset + 2 : offset + 2 + tag_length].decode()
        value = wire[offset + 2 + tag_length : offset + rdlength].decode()
        return cls(flags, tag, value)

    @classmethod
    def from_text(cls, tokens: list[str], origin: Name) -> "CAA":
        value = tokens[2]
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        return cls(int(tokens[0]), tokens[1], value)
