"""The one-loop listener: UDP and TCP on one port, one thread, no halts.

Every test here drives real loopback sockets.  What they pin: a socket
error on one datagram does not end UDP service; UDP and TCP clients at
once are booked exactly once each (the engine is called from one
thread); hostile bytes — the codec fuzz's messages and mutations, the
adversary's water-torture and NXNS streams — get the oracle's bytes,
inside the UDP size bound; ``serve_forever`` stops at exactly
``max_queries``; TCP frames split anywhere reassemble, and an idle or
misbehaving connection is closed without touching the others.
"""

from __future__ import annotations

import random
import socket
import struct
import sys
import threading
import time
from collections import Counter

import pytest

from repro.dns.listener import (
    Listener,
    query_tcp,
    query_udp,
    read_tcp_message,
    write_tcp_message,
)
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import MAX_UDP_PAYLOAD, Rcode, RRClass, RRType
from repro.dns.zone import Zone
from repro.netsim.adversary import AttackPlan, resolve_attack
from repro.telemetry import Telemetry

from .test_codec_fuzz import SEED, _random_message

ORIGIN = "ourtestdomain.nl."


def victim_zone() -> Zone:
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN, RRType.SOA,
        SOA(Name.from_text(f"ns1.{ORIGIN}"), Name.from_text(f"h.{ORIGIN}"),
            1, 7200, 3600, 1209600, 5),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text(f"ns1.{ORIGIN}")))
    zone.add(f"*.probe.{ORIGIN}", RRType.TXT, TXT.from_value("site-GRU"), ttl=5)
    for index in range(40):  # too big for 512 bytes, fits 4096
        zone.add(f"fat.{ORIGIN}", RRType.TXT, TXT.from_value(f"{index:03d}-" + "x" * 40))
    return zone


@pytest.fixture
def engine() -> AuthoritativeServer:
    return AuthoritativeServer("gru", [victim_zone()])


@pytest.fixture
def traced() -> AuthoritativeServer:
    """The engine with a tracer: its ``auth.query`` spans are what a
    capture at the server would record."""
    return AuthoritativeServer(
        "gru", [victim_zone()], telemetry=Telemetry.enabled_bundle()
    )


def captured(engine: AuthoritativeServer, attribute: str) -> list[str]:
    return [root.attributes[attribute] for root in engine.telemetry.tracer.traces()]


def probe(label: str, msg_id: int = 1) -> bytes:
    return Message.make_query(f"{label}.probe.{ORIGIN}", RRType.TXT, msg_id=msg_id).to_wire()


class TestUdpSurvivesSocketErrors:
    def test_one_failed_datagram_does_not_stop_udp(self):
        class Oversized(AuthoritativeServer):
            """Answers ``huge.probe`` with more than a datagram can carry."""

            def handle_wire(self, wire, client="", now=0.0):
                response = super().handle_wire(wire, client, now)
                return response + bytes(70_000) if b"\x04huge" in wire else response

        engine = Oversized("gru", [victim_zone()])
        with Listener(engine) as listener:
            with pytest.raises(TimeoutError):  # sendto failed: EMSGSIZE
                query_udp(listener.address, f"huge.probe.{ORIGIN}", RRType.TXT, timeout=0.3)
            answer = query_udp(listener.address, f"next.probe.{ORIGIN}", RRType.TXT)
        assert answer.answers[0].rdata.value == "site-GRU"
        assert listener.errors == 1
        assert engine.stats.queries == 2


class TestOneThread:
    def test_udp_and_tcp_clients_at_once_are_each_booked_once(self, traced):
        sent: list[str] = []
        failures: list[BaseException] = []
        with Listener(traced) as listener:

            def client(ask, prefix: str) -> None:
                try:
                    for index in range(40):
                        qname = f"{prefix}-{index}.probe.{ORIGIN}"
                        ask(listener.address, qname, RRType.TXT, msg_id=index + 1)
                        sent.append(qname)
                except BaseException as exc:  # surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(ask, f"{kind}{n}"))
                for n in range(2)
                for kind, ask in (("u", query_udp), ("t", query_tcp))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave as finely as possible
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(sent) == 160 and traced.stats.queries == 160
        assert Counter(captured(traced, "qname")) == Counter(sent)


def _hostile_wires() -> list[bytes]:
    """The codec fuzz's messages, each also with a byte flipped and cut
    short; answers too big for any payload, and questions too big for
    512 bytes; then the adversary's water-torture and NXNS query streams
    (the NXNS one with the victim lookups a bomb makes recursives send)."""
    rng = random.Random(SEED + 11)
    wires = []
    for _ in range(120):
        wire = _random_message(rng).to_wire()
        flipped = bytearray(wire)
        flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        wires += [wire, bytes(flipped), wire[: rng.randrange(len(wire))]]
    for payload in (None, 100, 512, 1232, 4096, 65535):
        fat = Message.make_query(f"fat.{ORIGIN}", RRType.TXT, msg_id=11)
        fat.edns_payload = payload
        wires += [fat.to_wire(), fat.request_nsid().to_wire()]
    two = Message(msg_id=12)
    for char in "ab":
        name = Name.from_text(".".join([char * 63] * 3 + [char * 61]) + ".")
        two.questions.append(Question(name, RRType.A, RRClass.IN))
    wires.append(two.to_wire())  # FORMERR echoing 510 bytes of questions
    for name in ("water-torture", "nxns"):
        plan = AttackPlan(resolve_attack(name), SEED, 600.0, ORIGIN)
        for vp_id in range(20):
            qname, _, _ = plan.query_for(vp_id, vp_id % 3)
            wires.append(Message.make_query(qname, RRType.A, msg_id=vp_id).to_wire())
    for target in plan.bomb.ns_targets(0):
        wires.append(Message.make_query(target, RRType.AAAA, msg_id=7).to_wire())
    return wires


def _udp_bound(wire: bytes) -> int:
    """max(512, min(EDNS, 4096)): the most a UDP answer to ``wire`` may be."""
    try:
        payload = Message.from_wire(wire).edns_payload
    except Exception:
        payload = None
    return max(MAX_UDP_PAYLOAD, min(payload or 0, 4096))


class TestHostileBytes:
    def test_hostile_bytes_get_the_oracle_answer_and_never_stop_the_listener(self):
        plan = AttackPlan(resolve_attack("nxns"), SEED, 600.0, ORIGIN)

        def engine() -> AuthoritativeServer:
            return AuthoritativeServer("gru", [victim_zone(), plan.bomb.build_zone()])

        served, oracle, tcp_oracle = engine(), engine(), engine()
        wires = _hostile_wires()
        cut = 0
        with Listener(served) as listener, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(listener.address)
            sock.settimeout(2.0)
            for wire in wires:
                expected = oracle.handle_wire(wire, "127.0.0.1:0")
                sock.send(wire)
                if expected is None:
                    continue
                answer = sock.recv(65535)
                assert answer == expected
                assert len(answer) <= _udp_bound(wire)
                full = tcp_oracle.handle_wire_tcp(wire)
                if len(full) > _udp_bound(wire):
                    assert answer[2] & 0x02  # cut, so TC is set
                    cut += 1
            assert cut >= 6
            stream = socket.create_connection(listener.address, timeout=2.0)
            for wire in wires:
                expected = tcp_oracle.handle_wire_tcp(wire)
                write_tcp_message(stream, wire)
                assert read_tcp_message(stream) == expected
                if expected is None:  # closed: the next wire takes a new one
                    stream.close()
                    stream = socket.create_connection(listener.address, timeout=2.0)
            stream.close()
            after = probe("after", msg_id=4242)
            sock.send(after)
            assert sock.recv(65535) == oracle.handle_wire(after, "127.0.0.1:0")
            assert query_tcp(listener.address, f"fat.{ORIGIN}", RRType.TXT).answers
        assert listener.errors == 0


class TestServeForever:
    def test_stops_at_exactly_max_queries_on_the_calling_thread(self, engine):
        listener = Listener(engine)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(listener.address)
            for index in range(5):  # queued before the loop runs
                sock.send(probe(f"q{index}", msg_id=index))
            sock.send(b"\x00\x01garbage")  # counted by no one
            before = threading.active_count()
            listener.serve_forever(max_queries=3)
            assert threading.active_count() == before
            sock.settimeout(0.5)
            answers = [sock.recv(65535) for _ in range(3)]
            with pytest.raises(socket.timeout):
                sock.recv(65535)
        listener.close()
        assert [answer[:2] for answer in answers] == [b"\x00\x00", b"\x00\x01", b"\x00\x02"]
        assert engine.stats.queries == 3

    def test_stop_ends_a_loop_that_waits_for_nothing(self, engine):
        listener = Listener(engine)
        listener.start()
        started = time.monotonic()
        listener.stop()
        assert time.monotonic() - started < 1.0
        assert not listener._thread.is_alive()


class TestTcpFraming:
    def test_frames_split_anywhere_and_pipelined_reassemble(self, engine):
        frames = b"".join(
            struct.pack("!H", len(wire)) + wire
            for wire in (probe("a", 1), probe("b", 2), probe("c", 3))
        )
        with Listener(engine) as listener, \
                socket.create_connection(listener.address, timeout=2.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for offset in range(len(frames)):
                sock.send(frames[offset : offset + 1])
                time.sleep(0.001)
            ids = [Message.from_wire(read_tcp_message(sock)).msg_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_garbage_frame_closes_only_its_connection(self, engine):
        with Listener(engine) as listener:
            with socket.create_connection(listener.address, timeout=2.0) as good, \
                    socket.create_connection(listener.address, timeout=2.0) as bad:
                write_tcp_message(bad, b"\x00\x01garbage")
                assert read_tcp_message(bad) is None  # closed by the listener
                write_tcp_message(good, probe("still", 9))
                assert Message.from_wire(read_tcp_message(good)).msg_id == 9
            assert query_udp(listener.address, f"udp.probe.{ORIGIN}", RRType.TXT).answers

    def test_idle_connection_is_closed(self, engine):
        listener = Listener(engine)
        listener._TCP_IDLE_S = 0.2
        with listener, socket.create_connection(listener.address, timeout=2.0) as sock:
            write_tcp_message(sock, probe("once", 5))
            assert Message.from_wire(read_tcp_message(sock)).rcode == Rcode.NOERROR
            started = time.monotonic()
            assert read_tcp_message(sock) is None  # closed after 0.2 s of silence
            assert 0.1 < time.monotonic() - started < 1.5
            assert not listener._connections

    def test_a_reset_connection_is_dropped(self, engine):
        with Listener(engine) as listener:
            sock = socket.create_connection(listener.address, timeout=2.0)
            sock.send(b"\x00\x40half")  # a frame never finished
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # RST
            assert _eventually(lambda: not listener._connections)
            assert query_tcp(listener.address, f"fat.{ORIGIN}", RRType.TXT).answers
        assert listener.errors == 0


def _eventually(condition, seconds: float = 2.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _stalled_reader(listener: Listener, queries: int) -> socket.socket:
    """A client that pipelines ``queries`` fat answers' worth of
    questions through a 4 KiB receive buffer and reads nothing yet."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5.0)
    sock.connect(listener.address)
    for msg_id in range(queries):
        fat = Message.make_query(f"fat.{ORIGIN}", RRType.TXT, msg_id=msg_id)
        write_tcp_message(sock, fat.to_wire())
    return sock


def _parked(listener: Listener) -> bool:
    """Whether a connection has answers the socket would not take."""
    return any(conn.outbox for conn in list(listener._connections.values()))


class TestTcpBackpressure:
    """~2.3 kB answers, 3 000 of them: more than a socket buffer holds."""

    def test_a_stalled_reader_is_parked_while_the_loop_serves(self, engine):
        with Listener(engine) as listener:
            stalled = _stalled_reader(listener, 3000)
            with stalled:
                assert _eventually(lambda: _parked(listener))
                time.sleep(0.3)
                assert engine.stats.queries < 3000  # parked: its frames wait unread
                assert query_udp(listener.address, f"meanwhile.probe.{ORIGIN}", RRType.TXT)
                ids = [Message.from_wire(read_tcp_message(stalled)).msg_id for _ in range(3000)]
        assert ids == list(range(3000))
        assert listener.errors == 0

    def test_a_slow_reader_gets_every_answer_before_a_garbage_frame(self, engine):
        """Sends keep the connection alive past the idle limit, and the
        close a garbage frame earns waits until the answers before it
        are out."""
        listener = Listener(engine)
        listener._TCP_IDLE_S = 1.0
        with listener, _stalled_reader(listener, 3000) as slow:
            write_tcp_message(slow, b"\x00\x01garbage")
            ids = []
            started = time.monotonic()
            for _ in range(10):
                time.sleep(0.2)  # each pause under the idle limit, all of them over it
                ids += [int.from_bytes(read_tcp_message(slow)[:2], "big") for _ in range(300)]
            assert time.monotonic() - started > listener._TCP_IDLE_S
            assert read_tcp_message(slow) is None  # closed after the last answer
        assert ids == list(range(3000))
        assert listener.errors == 0

    def test_a_reset_while_answers_wait_counts_one_error(self, engine):
        with Listener(engine) as listener:
            stalled = _stalled_reader(listener, 3000)
            assert _eventually(lambda: _parked(listener))
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            stalled.close()  # RST with answers still queued for it
            assert _eventually(lambda: not listener._connections)
            assert query_udp(listener.address, f"after.probe.{ORIGIN}", RRType.TXT)
        assert listener.errors == 1


class TestBinding:
    def test_a_taken_port_is_an_error_not_a_retry(self, engine):
        with Listener(engine) as first:
            with pytest.raises(OSError):
                Listener(engine, port=first.address[1])

    def test_each_datagram_is_booked_under_its_source_address(self, traced):
        with Listener(traced) as listener:
            for index in range(5):  # each query_udp is a fresh source port
                query_udp(listener.address, f"c{index}.probe.{ORIGIN}", RRType.TXT)
        clients = set(captured(traced, "client"))
        assert len(clients) == 5 and all(c.startswith("127.0.0.1:") for c in clients)
