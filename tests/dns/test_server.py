"""Tests for the authoritative server engine."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.server import AuthoritativeServer, ServerStats
from repro.dns.types import Opcode, Rcode, RRClass, RRType
from repro.dns.zone import Zone
from repro.telemetry import Telemetry

ORIGIN = Name.from_text("ourtestdomain.nl.")


def make_zone(txt_value="site-FRA"):
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.ourtestdomain.nl."),
            Name.from_text("hostmaster.ourtestdomain.nl."),
            1,
            7200,
            3600,
            1209600,
            5,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl.")))
    zone.add("ns1.ourtestdomain.nl.", RRType.A, A("192.0.2.1"))
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value(txt_value), ttl=5)
    return zone


@pytest.fixture
def server():
    return AuthoritativeServer("fra.ourtestdomain.nl", [make_zone()])


class TestQueryHandling:
    def test_positive_answer(self, server):
        query = Message.make_query("probe.ourtestdomain.nl.", RRType.TXT, msg_id=5)
        response = server.handle_query(query)
        assert response.msg_id == 5
        assert response.is_response
        assert response.authoritative
        assert response.rcode == Rcode.NOERROR
        assert response.answers[0].rdata == TXT.from_value("site-FRA")

    def test_per_site_txt_identifies_server(self):
        # The paper's experiment: same name, different TXT per site.
        fra = AuthoritativeServer("fra", [make_zone("site-FRA")])
        syd = AuthoritativeServer("syd", [make_zone("site-SYD")])
        query = Message.make_query("probe.ourtestdomain.nl.", RRType.TXT)
        assert fra.handle_query(query).answers[0].rdata.value == "site-FRA"
        assert syd.handle_query(query).answers[0].rdata.value == "site-SYD"

    def test_nxdomain(self, server):
        query = Message.make_query("nope.ourtestdomain.nl.", RRType.A)
        response = server.handle_query(query)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.authorities[0].rrtype == RRType.SOA

    def test_refused_out_of_bailiwick(self, server):
        query = Message.make_query("www.example.com.", RRType.A)
        response = server.handle_query(query)
        assert response.rcode == Rcode.REFUSED

    def test_notimp_for_update(self, server):
        query = Message.make_query("probe.ourtestdomain.nl.", RRType.TXT)
        query.opcode = Opcode.UPDATE
        response = server.handle_query(query)
        assert response.rcode == Rcode.NOTIMP

    def test_formerr_for_zero_questions(self, server):
        response = server.handle_query(Message())
        assert response.rcode == Rcode.FORMERR

    def test_longest_zone_match(self):
        sub = Zone("deep.ourtestdomain.nl.")
        sub.add("deep.ourtestdomain.nl.", RRType.TXT, TXT.from_value("subzone"))
        server = AuthoritativeServer("fra.ourtestdomain.nl", [make_zone(), sub])
        query = Message.make_query("deep.ourtestdomain.nl.", RRType.TXT)
        response = server.handle_query(query)
        assert response.answers[0].rdata.value == "subzone"


class TestChaos:
    def test_id_server_returns_server_id(self, server):
        query = Message.make_query("id.server.", RRType.TXT, rrclass=RRClass.CH)
        response = server.handle_query(query)
        assert response.answers[0].rdata.value == "fra.ourtestdomain.nl"

    def test_hostname_bind_supported(self, server):
        query = Message.make_query("hostname.bind.", RRType.TXT, rrclass=RRClass.CH)
        response = server.handle_query(query)
        assert response.answers[0].rdata.value == "fra.ourtestdomain.nl"

    def test_other_chaos_refused(self, server):
        query = Message.make_query("version.weird.", RRType.TXT, rrclass=RRClass.CH)
        response = server.handle_query(query)
        assert response.rcode == Rcode.REFUSED


class TestWireInterface:
    def test_handle_wire_roundtrip(self, server):
        query = Message.make_query("probe.ourtestdomain.nl.", RRType.TXT, msg_id=77)
        wire = server.handle_wire(query.to_wire(), client="198.51.100.10")
        response = Message.from_wire(wire)
        assert response.msg_id == 77
        assert response.answers[0].rdata.value == "site-FRA"

    def test_garbage_returns_none(self, server):
        assert server.handle_wire(b"\x00\x01") is None
        assert server.stats.formerr == 1


class TestLoggingAndStats:
    def test_query_span_records_client_and_qname(self):
        server = AuthoritativeServer(
            "fra", [make_zone()], telemetry=Telemetry.enabled_bundle()
        )
        query = Message.make_query("Probe.OurTestDomain.nl.", RRType.TXT)
        server.handle_query(query, client="203.0.113.5", now=12.5)
        (span,) = server.telemetry.tracer.traces()
        assert (span.name, span.start, span.end) == ("auth.query", 12.5, 12.5)
        assert span.attributes == {
            "server": "fra", "client": "203.0.113.5",
            "qname": "Probe.OurTestDomain.nl.", "rcode": "NOERROR",
        }

    def test_stats_counters(self, server):
        server.handle_query(Message.make_query("probe.ourtestdomain.nl.", RRType.TXT))
        server.handle_query(Message.make_query("no.ourtestdomain.nl.", RRType.A))
        server.handle_query(Message.make_query("other.com.", RRType.A))
        assert server.stats.queries == 3
        assert server.stats.nxdomain == 1
        assert server.stats.refused == 1


class TestServerStats:
    def test_defaults_to_zero(self):
        stats = ServerStats()
        assert (
            stats.queries, stats.responses, stats.nxdomain, stats.refused,
            stats.formerr, stats.notimp, stats.chaos,
        ) == (0, 0, 0, 0, 0, 0, 0)

    def test_counts_track_query_mix(self, server):
        server.handle_query(Message.make_query("probe.ourtestdomain.nl.", RRType.TXT))
        server.handle_query(Message.make_query("gone.ourtestdomain.nl.", RRType.A))
        server.handle_query(Message.make_query("other.org.", RRType.A))
        stats = server.stats
        assert stats.queries == 3
        assert stats.responses == 3
        assert stats.nxdomain == 1
        assert stats.refused == 1
