"""Integration tests: DNS over TCP and truncation fallback."""

import socket
import struct
import threading

import pytest

from repro.dns.errors import DnsError
from repro.dns.listener import (
    Listener,
    query_tcp,
    query_with_tcp_fallback,
    read_tcp_message,
    write_tcp_message,
)
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Opcode, Rcode, RRType
from repro.dns.zone import Zone

ORIGIN = Name.from_text("big.nl.")


@pytest.fixture
def engine():
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.big.nl."), Name.from_text("h.big.nl."), 1, 2, 3, 4, 5),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.big.nl.")))
    zone.add("small.big.nl.", RRType.TXT, TXT.from_value("tiny"))
    for index in range(40):
        zone.add("fat.big.nl.", RRType.TXT, TXT.from_value(f"s{index:03d}-" + "x" * 40))
    return AuthoritativeServer("srv", [zone])


class TestTcpServer:
    def test_simple_query(self, engine):
        with Listener(engine) as server:
            response = query_tcp(server.address, "small.big.nl.", RRType.TXT)
        assert response.answers[0].rdata.value == "tiny"
        assert response.authoritative

    def test_large_answer_not_truncated(self, engine):
        with Listener(engine) as server:
            response = query_tcp(server.address, "fat.big.nl.", RRType.TXT)
        assert not response.truncated
        assert len(response.answers) == 40

    def test_nxdomain(self, engine):
        with Listener(engine) as server:
            response = query_tcp(server.address, "nope.big.nl.", RRType.A)
        assert response.rcode == Rcode.NXDOMAIN

    def test_pipelined_queries_one_connection(self, engine):
        with Listener(engine) as server:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                for msg_id in (1, 2, 3):
                    query = Message.make_query("small.big.nl.", RRType.TXT, msg_id=msg_id)
                    write_tcp_message(sock, query.to_wire())
                    wire = read_tcp_message(sock)
                    assert Message.from_wire(wire).msg_id == msg_id

    def test_clean_close_mid_prefix(self, engine):
        with Listener(engine) as server:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                sock.sendall(struct.pack("!H", 100))  # promise 100 bytes, send none
            # Server must survive; a new connection still works.
            response = query_tcp(server.address, "small.big.nl.", RRType.TXT)
        assert response.answers


class TestFallback:
    def test_fallback_used_for_fat_answer(self, engine):
        with Listener(engine) as server:
            response, used_tcp = query_with_tcp_fallback(
                server.address, server.address, "fat.big.nl.", RRType.TXT
            )
        assert used_tcp
        assert len(response.answers) == 40

    def test_no_fallback_for_small_answer(self, engine):
        with Listener(engine) as server:
            response, used_tcp = query_with_tcp_fallback(
                server.address, server.address, "small.big.nl.", RRType.TXT
            )
        assert not used_tcp
        assert response.answers[0].rdata.value == "tiny"


class TestQueryTcpValidates:
    @pytest.mark.parametrize(
        "edit",
        [
            {"msg_id": 2},  # the wrong id
            {"flags": 0},  # the query echoed back: not a response
            {"opcode": Opcode.NOTIFY},  # the wrong opcode
        ],
    )
    def test_rejects_a_message_that_does_not_answer_the_query(self, engine, edit):
        """A local peer answers query id 1 with one header field wrong:
        query_tcp raises before it decodes any section."""
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as peer:
            peer.bind(("127.0.0.1", 0))
            peer.listen()

            def answer_wrongly() -> None:
                conn, _ = peer.accept()
                with conn:
                    query = Message.from_wire(read_tcp_message(conn))
                    response = engine.handle_query(query)
                    for attr, value in edit.items():
                        setattr(response, attr, value)
                    write_tcp_message(conn, response.to_wire())

            thread = threading.Thread(target=answer_wrongly)
            thread.start()
            try:
                with pytest.raises(DnsError, match="does not answer"):
                    query_tcp(peer.getsockname(), "small.big.nl.", RRType.TXT, msg_id=1)
            finally:
                thread.join()

    def test_a_peer_that_closes_without_answering_is_a_connection_error(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as peer:
            peer.bind(("127.0.0.1", 0))
            peer.listen()

            def close_unanswered() -> None:
                conn, _ = peer.accept()
                with conn:
                    read_tcp_message(conn)

            thread = threading.Thread(target=close_unanswered)
            thread.start()
            try:
                with pytest.raises(ConnectionError):
                    query_tcp(peer.getsockname(), "small.big.nl.", RRType.TXT)
            finally:
                thread.join()
