"""Tests for EDNS options and NSID (RFC 5001)."""

import socket

import pytest

from repro.dns.errors import WireFormatError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, OPT, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import RRType
from repro.dns.zone import Zone

ORIGIN = Name.from_text("example.nl.")


@pytest.fixture
def engine():
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
            1, 2, 3, 4, 5),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("t.example.nl.", RRType.TXT, TXT.from_value("x"))
    return AuthoritativeServer("fra-site-7.example.net", [zone])


class TestOptOptions:
    def test_encode_decode_roundtrip(self):
        options = [(3, b""), (10, b"\x01\x02\x03")]
        opt = OPT.encode_options(options)
        assert opt.decode_options() == options

    def test_empty(self):
        assert OPT().decode_options() == []

    def test_truncated_option_rejected(self):
        with pytest.raises(WireFormatError):
            OPT(b"\x00\x03\x00\x05ab").decode_options()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireFormatError):
            OPT(b"\x00\x03\x00\x00xx").decode_options()


class TestMessageOptions:
    def test_options_roundtrip_on_wire(self):
        query = Message.make_query("t.example.nl.", RRType.TXT).use_edns(4096)
        query.edns_options.append((10, b"\xaa\xbb"))
        decoded = Message.from_wire(query.to_wire())
        assert decoded.edns_options == [(10, b"\xaa\xbb")]

    def test_request_nsid_sets_edns(self):
        query = Message.make_query("t.example.nl.", RRType.TXT).request_nsid()
        assert query.edns_payload is not None
        assert query.nsid == b""

    def test_request_nsid_idempotent(self):
        query = Message.make_query("t.example.nl.", RRType.TXT)
        query.request_nsid().request_nsid()
        assert query.edns_options.count((Message.EDNS_NSID, b"")) == 1

    def test_nsid_none_without_option(self):
        query = Message.make_query("t.example.nl.", RRType.TXT).use_edns()
        assert query.nsid is None


class TestServerNsid:
    def test_nsid_returned_when_requested(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=5).request_nsid()
        response = Message.from_wire(engine.handle_wire(query.to_wire()))
        assert response.nsid == b"fra-site-7.example.net"
        assert response.answers  # the actual answer rides along

    def test_no_nsid_without_request(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT).use_edns()
        response = Message.from_wire(engine.handle_wire(query.to_wire()))
        assert response.nsid is None

    def test_no_nsid_for_plain_dns(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT)
        response = Message.from_wire(engine.handle_wire(query.to_wire()))
        assert response.edns_payload is None
        assert response.nsid is None

    def test_nsid_identifies_anycast_site(self):
        # Two sites of one anycast service answer with different NSIDs —
        # the modern catchment-mapping mechanism (§3.1 alternative).
        def site(name):
            zone = Zone(ORIGIN)
            zone.add(
                ORIGIN, RRType.SOA,
                SOA(Name.from_text("ns1.example.nl."),
                    Name.from_text("h.example.nl."), 1, 2, 3, 4, 5),
            )
            zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
            zone.add("t.example.nl.", RRType.TXT, TXT.from_value("x"))
            return AuthoritativeServer(name, [zone])

        fra, syd = site("fra"), site("syd")
        query = Message.make_query("t.example.nl.", RRType.TXT).request_nsid()
        assert Message.from_wire(fra.handle_wire(query.to_wire())).nsid == b"fra"
        assert Message.from_wire(syd.handle_wire(query.to_wire())).nsid == b"syd"


class TestNsidOverTcp:
    """The TC-fallback path: a truncated UDP answer is retried over TCP,
    and that answer identifies the instance exactly like the UDP one."""

    def test_handle_wire_tcp_returns_nsid(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=6).request_nsid()
        over_udp = Message.from_wire(engine.handle_wire(query.to_wire()))
        over_tcp = Message.from_wire(engine.handle_wire_tcp(query.to_wire()))
        assert over_tcp.nsid == over_udp.nsid == b"fra-site-7.example.net"
        assert over_tcp.edns_payload == over_udp.edns_payload == 4096
        assert over_tcp.answers == over_udp.answers

    def test_handle_wire_tcp_without_request_has_no_nsid(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT).use_edns(1232)
        response = Message.from_wire(engine.handle_wire_tcp(query.to_wire()))
        assert response.edns_payload == 4096
        assert response.nsid is None

    def test_tcp_server_round_trip_returns_nsid(self, engine):
        from repro.dns.listener import Listener, read_tcp_message, write_tcp_message

        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=7).request_nsid()
        with Listener(engine) as server:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                write_tcp_message(sock, query.to_wire())
                response = Message.from_wire(read_tcp_message(sock))
        assert response.msg_id == 7
        assert response.nsid == b"fra-site-7.example.net"
        assert response.answers[0].rdata.value == "x"
