"""Integration tests: the authoritative engine over real UDP sockets."""

import pytest

from repro.dns.listener import Listener, query_udp
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRClass, RRType
from repro.dns.zone import Zone
from repro.telemetry import Telemetry

ORIGIN = Name.from_text("ourtestdomain.nl.")


@pytest.fixture
def engine():
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
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value("site-GRU"), ttl=5)
    return AuthoritativeServer("gru", [zone], telemetry=Telemetry.enabled_bundle())


class TestUdpServer:
    def test_txt_query_over_loopback(self, engine):
        with Listener(engine) as server:
            response = query_udp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
        assert response.answers[0].rdata.value == "site-GRU"
        assert response.authoritative

    def test_nxdomain_over_loopback(self, engine):
        with Listener(engine) as server:
            response = query_udp(server.address, "gone.ourtestdomain.nl.", RRType.A)
        assert response.rcode == Rcode.NXDOMAIN

    def test_chaos_identification(self, engine):
        with Listener(engine) as server:
            response = query_udp(
                server.address, "id.server.", RRType.TXT, rrclass=RRClass.CH
            )
        assert response.answers[0].rdata.value == "gru"

    def test_server_logs_real_client(self, engine):
        with Listener(engine) as server:
            query_udp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
        (span,) = engine.telemetry.tracer.traces()
        assert span.attributes["client"].startswith("127.0.0.1:")

    def test_multiple_sequential_queries(self, engine):
        with Listener(engine) as server:
            for i in range(5):
                response = query_udp(
                    server.address, "probe.ourtestdomain.nl.", RRType.TXT, msg_id=i + 1
                )
                assert response.msg_id == i + 1
        assert engine.stats.queries == 5

    def test_timeout_when_server_stopped(self, engine):
        server = Listener(engine)
        address = server.address
        server.start()
        server.stop()
        with pytest.raises((TimeoutError, OSError)):
            query_udp(address, "probe.ourtestdomain.nl.", RRType.TXT, timeout=0.3)

    def test_mismatched_id_ignored(self, engine):
        # query_udp must keep waiting past responses with the wrong id;
        # our server echoes ids, so just confirm the matching path works.
        with Listener(engine) as server:
            response = query_udp(
                server.address, "probe.ourtestdomain.nl.", RRType.TXT, msg_id=4321
            )
        assert response.msg_id == 4321


class TestUntrustedDatagrams:
    def test_waits_past_every_datagram_that_is_not_the_answer(self, engine):
        """A stand-in server answers with garbage, a wrong id, the query
        echoed back, a wrong opcode, a right header over an undecodable
        body and a forgery from another port before the real answer:
        query_udp skips them all."""
        import socket
        import threading

        from repro.dns.types import Opcode

        def reply(query: Message, **edits) -> bytes:
            response = query.make_response()
            response.answers = engine.handle_query(query).answers
            for attr, value in edits.items():
                setattr(response, attr, value)
            return response.to_wire()

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as server, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as forger:
            server.bind(("127.0.0.1", 0))
            server.settimeout(5.0)

            def serve() -> None:
                wire, client = server.recvfrom(65535)
                query = Message.from_wire(wire)
                server.sendto(b"\x00\x07garbage", client)
                server.sendto(reply(query, msg_id=query.msg_id ^ 1), client)
                server.sendto(wire, client)  # right id, but not a response
                server.sendto(reply(query, opcode=Opcode.NOTIFY), client)
                server.sendto(reply(query)[:14], client)  # the name cut short
                forger.sendto(reply(query, answers=[]), client)  # wrong port
                server.sendto(reply(query), client)

            thread = threading.Thread(target=serve)
            thread.start()
            try:
                response = query_udp(
                    server.getsockname(), "probe.ourtestdomain.nl.", RRType.TXT,
                    msg_id=77, timeout=5.0,
                )
            finally:
                thread.join()
        assert response.is_response and response.msg_id == 77
        assert response.opcode == Opcode.QUERY
        assert response.answers[0].rdata.value == "site-GRU"


class SteppingClock:
    """now() advances itself on every read — no real waiting needed."""

    def __init__(self, step: float):
        self.step = step
        self._now = 0.0

    def now(self) -> float:
        current = self._now
        self._now += self.step
        return current


class TestInjectableDeadline:
    def test_query_works_with_injected_clock(self, engine):
        from ..telemetry.test_clock import ManualClock

        with Listener(engine) as server:
            response = query_udp(
                server.address, "probe.ourtestdomain.nl.", RRType.TXT,
                clock=ManualClock(),
            )
        assert response.answers[0].rdata.value == "site-GRU"

    def test_deadline_runs_on_injected_clock(self, engine):
        # Regression: the receive deadline used time.monotonic()
        # directly, ignoring the injected clock.  With a clock that
        # jumps past the deadline between reads, the timeout must fire
        # immediately — no wall-clock waiting, no socket timeout.
        with Listener(engine) as server:
            with pytest.raises(TimeoutError):
                query_udp(
                    server.address, "probe.ourtestdomain.nl.", RRType.TXT,
                    timeout=5.0, clock=SteppingClock(step=10.0),
                )
