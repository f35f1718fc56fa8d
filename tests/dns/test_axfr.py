"""Tests for serving AXFR zone transfers (a read of a frozen zone)."""

import socket

import pytest

from repro.dns.errors import ZoneError
from repro.dns.listener import Listener, query_tcp, read_tcp_message, write_tcp_message
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.server import AXFR_TYPE_CODE, AuthoritativeServer, build_axfr_response
from repro.dns.types import Opcode, Rcode, RRClass, RRType
from repro.dns.zone import Zone
from repro.telemetry import Telemetry

ORIGIN = Name.from_text("example.nl.")


def make_zone(serial=1, extra_records=3):
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.example.nl."),
            Name.from_text("h.example.nl."),
            serial, 7200, 3600, 1209600, 300,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("ns1.example.nl.", RRType.A, A("192.0.2.1"))
    for index in range(extra_records):
        zone.add(f"h{index}.example.nl.", RRType.TXT, TXT.from_value(f"rec-{index}"))
    return zone


def axfr_query(origin=ORIGIN, msg_id=7, rrclass=RRClass.IN):
    query = Message(msg_id=msg_id)
    query.questions.append(Question(origin, AXFR_TYPE_CODE, rrclass))  # type: ignore[arg-type]
    return query


class TestAxfrResponse:
    def test_soa_framing(self):
        response = build_axfr_response(axfr_query(), make_zone())
        assert response.answers[0].rrtype == RRType.SOA
        assert response.answers[-1].rrtype == RRType.SOA
        assert response.answers[0].rdata == response.answers[-1].rdata

    def test_contains_every_record(self):
        zone = make_zone(extra_records=5)
        response = build_axfr_response(axfr_query(), zone)
        names = {record.name for record in response.answers}
        assert Name.from_text("h4.example.nl.") in names

    def test_zone_without_soa_rejected(self):
        zone = Zone(ORIGIN)
        zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
        with pytest.raises(ZoneError):
            build_axfr_response(axfr_query(), zone)


class TestAxfrOverTcp:
    def test_transfer_end_to_end(self):
        zone = make_zone(extra_records=6)
        engine = AuthoritativeServer("primary", [zone])
        with Listener(engine) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                write_tcp_message(sock, axfr_query().to_wire())
                wire = read_tcp_message(sock)
        response = Message.from_wire(wire)
        assert response.rcode == Rcode.NOERROR and response.authoritative
        records = response.answers
        assert records[0].rrtype == records[-1].rrtype == RRType.SOA
        assert {(r.name, r.rrtype, r.rdata) for r in records} == {
            (r.name, r.rrtype, r.rdata) for rrset in zone.rrsets() for r in rrset.records()
        }
        assert len(records) == 1 + sum(len(rrset) for rrset in zone.rrsets())

    def test_transfer_refused_below_apex(self):
        engine = AuthoritativeServer("primary", [make_zone()])
        with Listener(engine) as server:
            response = query_tcp(server.address, "sub.example.nl.", AXFR_TYPE_CODE)
        assert response.rcode == Rcode.REFUSED and not response.answers

    def test_transfer_refused_unknown_zone(self):
        engine = AuthoritativeServer("primary", [make_zone()])
        with Listener(engine) as server:
            response = query_tcp(server.address, "other.com.", AXFR_TYPE_CODE)
        assert response.rcode == Rcode.REFUSED and not response.answers


class TestAxfrIsAnAnswerLikeAnyOther:
    def test_transfers_book_stats_log_and_span(self):
        """An AXFR, served or refused, is counted and traced as
        ``handle_query`` books any answer."""
        engine = AuthoritativeServer(
            "primary", [make_zone()], telemetry=Telemetry.enabled_bundle()
        )
        below = axfr_query(Name.from_text("sub.example.nl."), msg_id=8)
        for query, now in ((axfr_query(), 1.0), (below, 2.0)):
            engine.handle_wire_tcp(query.to_wire(), "192.0.2.7:4000", now)
        assert engine.stats.queries == engine.stats.responses == 2
        assert engine.stats.refused == 1
        roots = engine.telemetry.tracer.traces()
        assert [
            (root.name, root.start, root.attributes["client"],
             root.attributes["qname"], root.attributes["rcode"])
            for root in roots
        ] == [
            ("auth.query", 1.0, "192.0.2.7:4000", "example.nl.", "NOERROR"),
            ("auth.query", 2.0, "192.0.2.7:4000", "sub.example.nl.", "REFUSED"),
        ]

    def test_class_and_opcode_are_checked_as_for_any_query(self):
        """A CHAOS-class AXFR at the apex is REFUSED, not a transfer of the
        IN zone, and a non-QUERY opcode is a counted NOTIMP."""
        engine = AuthoritativeServer("primary", [make_zone()])
        chaos = Message.from_wire(engine.handle_wire_tcp(
            axfr_query(rrclass=RRClass.CH).to_wire()
        ))
        assert chaos.rcode == Rcode.REFUSED and not chaos.answers
        notify = axfr_query()
        notify.opcode = Opcode.NOTIFY
        notimp = Message.from_wire(engine.handle_wire_tcp(notify.to_wire()))
        assert notimp.rcode == Rcode.NOTIMP
        assert (engine.stats.chaos, engine.stats.notimp, engine.stats.formerr) == (1, 1, 0)

    def test_udp_asks_for_type_252_as_for_any_unknown_type(self):
        engine = AuthoritativeServer("primary", [make_zone()])
        response = Message.from_wire(engine.handle_wire(axfr_query().to_wire()))
        assert response.rcode == Rcode.NOERROR and response.authoritative
        assert not response.answers  # NODATA: the apex has no type-252 RRset
        assert [record.rrtype for record in response.authorities] == [RRType.SOA]
