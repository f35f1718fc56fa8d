"""Tests for AXFR zone transfer and secondary zones."""

import pytest

from repro.dns.axfr import (
    SecondaryZone,
    build_axfr_response,
    request_axfr,
    zone_from_axfr,
)
from repro.dns.errors import ZoneError
from repro.dns.listener import Listener
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRClass, RRType
from repro.dns.zone import Zone

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


def axfr_query(origin=ORIGIN, msg_id=7):
    query = Message(msg_id=msg_id)
    query.questions.append(Question(origin, 252, RRClass.IN))  # type: ignore[arg-type]
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


class TestZoneFromAxfr:
    def test_roundtrip(self):
        original = make_zone(extra_records=4)
        response = build_axfr_response(axfr_query(), original)
        rebuilt = zone_from_axfr(ORIGIN, response.answers)
        rebuilt.validate()
        assert {
            (rs.name, rs.rrtype, tuple(rs.rdatas)) for rs in rebuilt.rrsets()
        } == {(rs.name, rs.rrtype, tuple(rs.rdatas)) for rs in original.rrsets()}

    def test_unframed_stream_rejected(self):
        original = make_zone()
        response = build_axfr_response(axfr_query(), original)
        with pytest.raises(ZoneError):
            zone_from_axfr(ORIGIN, response.answers[1:])  # missing lead SOA

    def test_short_stream_rejected(self):
        with pytest.raises(ZoneError):
            zone_from_axfr(ORIGIN, [])


class TestAxfrOverTcp:
    def test_transfer_end_to_end(self):
        engine = AuthoritativeServer("primary", [make_zone(extra_records=6)])
        with Listener(engine) as server:
            zone = request_axfr(server.address, ORIGIN)
        zone.validate()
        assert zone.get_rrset(Name.from_text("h5.example.nl."), RRType.TXT)

    def test_transfer_refused_below_apex(self):
        engine = AuthoritativeServer("primary", [make_zone()])
        with Listener(engine) as server:
            with pytest.raises(ZoneError):
                request_axfr(server.address, "sub.example.nl.")

    def test_transfer_refused_unknown_zone(self):
        engine = AuthoritativeServer("primary", [make_zone()])
        with Listener(engine) as server:
            with pytest.raises(ZoneError):
                request_axfr(server.address, "other.com.")


class TestSecondaryZone:
    def test_initial_transfer(self):
        engine = AuthoritativeServer("primary", [make_zone(serial=5)])
        with Listener(engine) as server:
            secondary = SecondaryZone(ORIGIN, server.address)
            secondary.transfer()
        assert secondary.serial == 5

    def test_refresh_skips_same_serial(self):
        engine = AuthoritativeServer("primary", [make_zone(serial=5)])
        with Listener(engine) as server:
            secondary = SecondaryZone(ORIGIN, server.address)
            secondary.transfer()
            assert secondary.refresh() is False

    def test_refresh_pulls_newer_serial(self):
        engine = AuthoritativeServer("primary", [make_zone(serial=5)])
        with Listener(engine) as server:
            secondary = SecondaryZone(ORIGIN, server.address)
            secondary.transfer()
            engine.remove_zone(ORIGIN)
            engine.add_zone(make_zone(serial=6, extra_records=7))
            assert secondary.refresh() is True
        assert secondary.serial == 6
        assert secondary.zone.get_rrset(
            Name.from_text("h6.example.nl."), RRType.TXT
        )

    def test_secondary_serves_transferred_zone(self):
        engine = AuthoritativeServer("primary", [make_zone(serial=9)])
        with Listener(engine) as server:
            secondary = SecondaryZone(ORIGIN, server.address)
            zone = secondary.transfer()
        replica = AuthoritativeServer("secondary", [zone])
        response = replica.handle_query(
            Message.make_query("h0.example.nl.", RRType.TXT)
        )
        assert response.rcode == Rcode.NOERROR
        assert response.answers[0].rdata.value == "rec-0"
