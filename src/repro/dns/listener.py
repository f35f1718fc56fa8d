"""Real sockets: one event loop serving the engine, and the clients.

A :class:`Listener` runs a UDP socket, a TCP listening socket on the same
port and every TCP connection from one :mod:`selectors` loop on one
thread; no socket blocks or has a timeout.  TCP (2-byte length per
message, RFC 1035 §4.2.2) is the fallback for truncated UDP answers.
The simulator never imports this module; ``repro.dns`` does not either.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time

from ..telemetry.clock import DEFAULT_CLOCK, Clock
from .errors import DnsError
from .message import Message
from .name import Name
from .server import AuthoritativeServer
from .types import RRClass, RRType

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Connection:
    """One TCP client: unfinished frames in, unsent bytes out."""

    __slots__ = ("client", "closing", "deadline", "inbox", "outbox")

    def __init__(self, client: str, deadline: float):
        self.client, self.deadline, self.closing = client, deadline, False
        self.inbox, self.outbox = bytearray(), bytearray()


class Listener:
    """Serve an :class:`AuthoritativeServer` over UDP and TCP on one port.

    :meth:`serve_forever` runs the loop on the calling thread; as a
    context manager it runs on one background thread (:meth:`start` /
    :meth:`stop`).  Each query's arrival time (its ``auth.query`` span's
    start) comes from the injectable ``clock``.
    A socket error on one datagram or connection is counted in
    :attr:`errors` and skipped.
    """

    _UDP_BATCH = 64  # datagrams read per readiness event, so TCP is not starved
    _TCP_IDLE_S = 5.0  # seconds a TCP connection may neither read nor send

    def __init__(
        self, engine: AuthoritativeServer, host: str = "127.0.0.1",
        port: int = 0, clock: Clock = DEFAULT_CLOCK,
    ):
        self.engine, self.clock, self.errors = engine, clock, 0
        self._connections: dict[socket.socket, _Connection] = {}
        self._limit, self._stopped, self._thread = float("inf"), False, None
        tries = 1 if port else 8  # port 0: UDP may already hold TCP's free port
        for attempt in range(tries):
            self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                self._tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                self._tcp.bind((host, port))
                self._udp.bind(self._tcp.getsockname())
                break
            except OSError:
                self._udp.close()
                self._tcp.close()
                if attempt == tries - 1:
                    raise
        self.address: tuple[str, int] = self._tcp.getsockname()
        self._tcp.listen()
        self._wake, self._waker = socket.socketpair()  # stop() ends a select()
        self._selector = selectors.DefaultSelector()
        for sock, handler in (
            (self._udp, self._on_udp), (self._tcp, self._on_accept),
            (self._wake, lambda sock, mask: sock.recv(64)),
        ):
            sock.setblocking(False)
            self._selector.register(sock, _READ, handler)

    def serve_forever(self, max_queries: int = 0) -> None:
        """Run until :meth:`stop`, or until the engine has counted exactly
        ``max_queries`` queries (0: no limit): a message adds at most one,
        and no handler reads one once the count is reached."""
        self._limit = max_queries or float("inf")
        stats, connections = self.engine.stats, self._connections
        while not self._stopped and stats.queries < self._limit:
            timeout = None
            if connections:
                deadline = min(conn.deadline for conn in connections.values())
                timeout = max(0.0, deadline - time.monotonic())
            for key, mask in self._selector.select(timeout):
                key.data(key.fileobj, mask)
            if connections:
                now = time.monotonic()
                for sock in [s for s, c in connections.items() if c.deadline <= now]:
                    self._drop(sock)

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopped = True
        self._waker.send(b"\0")
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self.close()

    def close(self) -> None:
        """Release every socket; the loop must not be running."""
        for sock in list(self._connections):
            self._drop(sock)
        self._selector.close()
        for sock in (self._udp, self._tcp, self._wake, self._waker):
            sock.close()

    def __enter__(self) -> "Listener":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _on_udp(self, sock: socket.socket, _mask: int) -> None:
        handle, now = self.engine.handle_wire, self.clock.now
        for _ in range(min(self._UDP_BATCH, self._limit - self.engine.stats.queries)):
            try:
                wire, address = sock.recvfrom(65535)
            except BlockingIOError:
                return
            except OSError:
                self.errors += 1
                continue
            response = handle(wire, "%s:%d" % address, now())
            if response is not None:
                try:
                    sock.sendto(response, address)
                except OSError:  # EMSGSIZE, a full send buffer, ...
                    self.errors += 1

    def _on_accept(self, sock: socket.socket, _mask: int) -> None:
        try:
            conn, address = sock.accept()
        except OSError:
            return
        conn.setblocking(False)
        deadline = time.monotonic() + self._TCP_IDLE_S
        self._connections[conn] = _Connection("%s:%d" % address, deadline)
        self._selector.register(conn, _READ, self._on_tcp)

    def _on_tcp(self, sock: socket.socket, mask: int) -> None:
        """Answer whole frames, then send; no reads while unsent bytes wait.
        A read or a send that moves bytes restarts the idle clock."""
        conn = self._connections[sock]
        if mask & _READ:
            try:
                data = sock.recv(65535)
            except BlockingIOError:
                return
            except OSError:  # reset by the client
                data = b""
            if not data:
                return self._drop(sock)
            conn.deadline = time.monotonic() + self._TCP_IDLE_S
            inbox = conn.inbox
            inbox += data
            while len(inbox) >= 2 and self.engine.stats.queries < self._limit:
                end = 2 + (inbox[0] << 8 | inbox[1])
                if len(inbox) < end:
                    break
                wire, client = bytes(inbox[2:end]), conn.client
                response = self.engine.handle_wire_tcp(wire, client, self.clock.now())
                del inbox[:end]
                if response is None or len(response) > 0xFFFF:
                    conn.closing = True  # unanswerable: closed once the outbox is sent
                    break
                conn.outbox += len(response).to_bytes(2, "big") + response
        if conn.outbox:
            try:
                sent = sock.send(conn.outbox)
            except BlockingIOError:
                sent = 0
            except OSError:
                self.errors += 1
                return self._drop(sock)
            if sent:
                del conn.outbox[:sent]
                conn.deadline = time.monotonic() + self._TCP_IDLE_S
        if conn.closing and not conn.outbox:
            return self._drop(sock)
        events = _WRITE if conn.outbox else _READ
        if self._selector.get_key(sock).events != events:
            self._selector.modify(sock, events, self._on_tcp)

    def _drop(self, sock: socket.socket) -> None:
        if self._connections.pop(sock, None) is not None:
            self._selector.unregister(sock)
            sock.close()


# -- clients ------------------------------------------------------------------


def answers_query(query_wire: bytes, wire: bytes) -> bool:
    """Whether ``wire`` is a response (QR) with the id and opcode of
    ``query_wire`` — read off the header, before any section."""
    return (
        len(wire) >= 12
        and wire[:2] == query_wire[:2]
        and (wire[2] ^ query_wire[2]) & 0xF8 == 0x80
    )


def query_udp(
    address: tuple[str, int], qname: Name | str, qtype: RRType,
    rrclass: RRClass = RRClass.IN, timeout: float = 2.0, msg_id: int = 1,
    clock: Clock = DEFAULT_CLOCK,
) -> Message:
    """Send one UDP query and wait for the matching response.

    A datagram is the response only when it comes from the address the
    query went to, :func:`answers_query`, and decodes; anything else is
    skipped until the deadline, which runs on the injectable ``clock``.
    """
    query = Message.make_query(qname, qtype, rrclass, msg_id=msg_id).to_wire()
    # The numeric (host, port) that recvfrom reports for the server.
    peer = socket.getaddrinfo(*address, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(query, peer)
        deadline = clock.now() + timeout
        while True:
            remaining = deadline - clock.now()
            if remaining <= 0:
                raise TimeoutError(f"no response from {address}")
            sock.settimeout(remaining)
            wire, source = sock.recvfrom(65535)
            if source != peer or not answers_query(query, wire):
                continue
            try:
                return Message.from_wire(wire)
            except (DnsError, ValueError):  # what garbage decodes to
                continue


def read_tcp_message(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed DNS message; None on a clean close."""
    prefix = _read_exact(sock, 2)
    return None if prefix is None else _read_exact(sock, int.from_bytes(prefix, "big"))


def write_tcp_message(sock: socket.socket, wire: bytes) -> None:
    sock.sendall(len(wire).to_bytes(2, "big") + wire)


def _read_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            return None
        chunks += chunk
    return bytes(chunks)


def query_tcp(
    address: tuple[str, int], qname: Name | str, qtype: RRType,
    rrclass: RRClass = RRClass.IN, timeout: float = 2.0, msg_id: int = 1,
) -> Message:
    """Send one TCP query and read the response, which must pass
    :func:`answers_query` before any section is decoded (else
    :class:`DnsError`: the connection carries nothing else)."""
    query = Message.make_query(qname, qtype, rrclass, msg_id=msg_id).to_wire()
    with socket.create_connection(address, timeout=timeout) as sock:
        write_tcp_message(sock, query)
        wire = read_tcp_message(sock)
    if wire is None:
        raise ConnectionError(f"no response from {address}")
    if not answers_query(query, wire):
        raise DnsError(f"{address} sent a message that does not answer the query")
    return Message.from_wire(wire)


def query_with_tcp_fallback(
    udp_address: tuple[str, int], tcp_address: tuple[str, int],
    qname: Name | str, qtype: RRType, rrclass: RRClass = RRClass.IN,
    timeout: float = 2.0, msg_id: int = 1,
) -> tuple[Message, bool]:
    """UDP first; on a truncated (TC) response, retry over TCP.
    Returns (response, used_tcp)."""
    response = query_udp(udp_address, qname, qtype, rrclass, timeout, msg_id)
    if not response.truncated:
        return response, False
    return query_tcp(tcp_address, qname, qtype, rrclass, timeout, msg_id), True
