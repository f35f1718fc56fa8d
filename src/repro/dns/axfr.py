"""Zone transfer (AXFR, RFC 5936) and secondary-zone maintenance.

Authoritative operators replicate zones from a primary to secondaries;
the paper's NS sets are exactly such replica groups.  AXFR runs over
TCP: the answer stream starts and ends with the zone's SOA, with every
other record in between.
"""

from __future__ import annotations

import socket

from .errors import ZoneError
from .message import Message
from .name import Name
from .records import ResourceRecord
from .server import AuthoritativeServer
from .types import Opcode, Rcode, RRClass, RRType
from .zone import Zone

AXFR_TYPE_CODE = 252


def build_axfr_response(query: Message, zone: Zone) -> Message:
    """The full AXFR answer: SOA, all other records, SOA again."""
    response = query.make_response()
    response.authoritative = True
    soa_rrset = zone.soa
    if soa_rrset is None:
        raise ZoneError(f"zone {zone.origin} has no SOA; cannot transfer")
    soa_records = soa_rrset.records()
    response.answers.extend(soa_records)
    for rrset in zone.rrsets():
        if rrset.rrtype == RRType.SOA:
            continue
        response.answers.extend(rrset.records())
    response.answers.extend(soa_records)
    return response


def handle_axfr(engine: AuthoritativeServer, query: Message) -> Message:
    """Process one AXFR query against an engine's zones."""
    response = query.make_response()
    if query.opcode != Opcode.QUERY or len(query.questions) != 1:
        response.rcode = Rcode.FORMERR
        return response
    question = query.questions[0]
    zone = engine.find_zone(question.name)
    if zone is None or zone.origin != question.name:
        response.rcode = Rcode.REFUSED  # transfers only at zone apexes
        return response
    return build_axfr_response(query, zone)


def request_axfr(
    address: tuple[str, int],
    origin: Name | str,
    timeout: float = 5.0,
    msg_id: int = 1,
) -> Zone:
    """Transfer a zone from a primary over TCP; returns the new Zone."""
    if isinstance(origin, str):
        origin = Name.from_text(origin)
    query = Message(msg_id=msg_id)
    from .listener import read_tcp_message, write_tcp_message
    from .message import Question

    query.questions.append(Question(origin, AXFR_TYPE_CODE, RRClass.IN))  # type: ignore[arg-type]
    with socket.create_connection(address, timeout=timeout) as sock:
        write_tcp_message(sock, query.to_wire())
        wire = read_tcp_message(sock)
    if wire is None:
        raise ConnectionError(f"no AXFR response from {address}")
    response = Message.from_wire(wire)
    if response.rcode != Rcode.NOERROR:
        raise ZoneError(f"AXFR refused: {response.rcode.to_text()}")
    return zone_from_axfr(origin, response.answers)


def zone_from_axfr(origin: Name, records: list[ResourceRecord]) -> Zone:
    """Validate the SOA framing and materialize the transferred zone."""
    if len(records) < 2:
        raise ZoneError("AXFR stream too short")
    first, last = records[0], records[-1]
    if first.rrtype != RRType.SOA or last.rrtype != RRType.SOA:
        raise ZoneError("AXFR stream not SOA-framed")
    if first.rdata != last.rdata:
        raise ZoneError("AXFR begins and ends with different SOAs")
    zone = Zone(origin)
    for record in records[:-1]:  # drop the trailing SOA duplicate
        zone.add_record(record)
    return zone


class SecondaryZone:
    """A secondary's view of a zone: transfer, serve, refresh.

    Minimal replica logic: :meth:`refresh` re-transfers when the
    primary's serial is newer (compared via an SOA query).
    """

    def __init__(self, origin: Name | str, primary: tuple[str, int]):
        self.origin = Name.from_text(origin) if isinstance(origin, str) else origin
        self.primary = primary
        self.zone: Zone | None = None

    @property
    def serial(self) -> int | None:
        if self.zone is None or self.zone.soa is None:
            return None
        return self.zone.soa.rdatas[0].serial

    def transfer(self) -> Zone:
        self.zone = request_axfr(self.primary, self.origin)
        return self.zone

    def refresh(self) -> bool:
        """Transfer if the primary holds a newer serial; True if updated."""
        from .listener import query_tcp

        response = query_tcp(self.primary, self.origin, RRType.SOA)
        primary_serial = None
        for record in response.answers:
            if record.rrtype == RRType.SOA:
                primary_serial = record.rdata.serial
        if primary_serial is None:
            raise ZoneError("primary returned no SOA")
        if self.serial is not None and primary_serial <= self.serial:
            return False
        self.transfer()
        return True


def build_notify(origin: Name | str, serial: int | None = None, msg_id: int = 1) -> Message:
    """An RFC 1996 NOTIFY message announcing a zone change."""
    from .message import Question

    if isinstance(origin, str):
        origin = Name.from_text(origin)
    notify = Message(msg_id=msg_id, opcode=Opcode.NOTIFY)
    notify.questions.append(Question(origin, RRType.SOA, RRClass.IN))
    notify.authoritative = True
    return notify


class NotifyReceiver:
    """Secondary-side NOTIFY handling: acknowledge, then refresh.

    Wire this into a transport by calling :meth:`handle` for messages
    with opcode NOTIFY; it answers the NOTIFY and kicks the secondary's
    SOA-serial-driven refresh.
    """

    def __init__(self, secondaries: list[SecondaryZone]):
        self._by_origin = {secondary.origin: secondary for secondary in secondaries}
        self.notifies_received = 0
        self.refreshes_triggered = 0

    def handle(self, notify: Message) -> Message:
        response = notify.make_response()
        if notify.opcode != Opcode.NOTIFY or len(notify.questions) != 1:
            response.rcode = Rcode.FORMERR
            return response
        self.notifies_received += 1
        origin = notify.questions[0].name
        secondary = self._by_origin.get(origin)
        if secondary is None:
            response.rcode = Rcode.REFUSED
            return response
        if secondary.refresh():
            self.refreshes_triggered += 1
        return response
