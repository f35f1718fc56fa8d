"""Real-socket UDP transport for the authoritative engine.

Used by integration tests and the quickstart example to show the DNS
substrate speaking actual wire format over the loopback interface.
"""

from __future__ import annotations

import socket
import threading

from ..telemetry.clock import DEFAULT_CLOCK, Clock
from .errors import DnsError
from .message import Message
from .name import Name
from .server import AuthoritativeServer
from .types import RRClass, RRType


class UdpAuthoritativeServer:
    """Serve an :class:`AuthoritativeServer` over a real UDP socket.

    Runs a background thread; use as a context manager::

        with UdpAuthoritativeServer(engine, host="127.0.0.1") as server:
            answer = query_udp(server.address, "example.nl.", RRType.TXT)

    Query-log timestamps come from the injectable ``clock`` (monotonic
    by default, shared with the TCP transport), not ``time.time()``.
    """

    def __init__(
        self,
        engine: AuthoritativeServer,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Clock = DEFAULT_CLOCK,
    ):
        self.engine = engine
        self.clock = clock
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(0.1)
        self.address: tuple[str, int] = self._sock.getsockname()
        self._running = False
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._sock.close()

    def _serve(self) -> None:
        while self._running:
            try:
                wire, client = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            response = self.engine.handle_wire(
                wire, client=f"{client[0]}:{client[1]}", now=self.clock.now()
            )
            if response is not None:
                try:
                    self._sock.sendto(response, client)
                except OSError:
                    break

    def __enter__(self) -> "UdpAuthoritativeServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def query_udp(
    address: tuple[str, int],
    qname: Name | str,
    qtype: RRType,
    rrclass: RRClass = RRClass.IN,
    timeout: float = 2.0,
    msg_id: int = 1,
    clock: Clock = DEFAULT_CLOCK,
) -> Message:
    """Send one UDP query and wait for the matching response.

    A datagram is the response only when it comes from the address the
    query went to, decodes, is a response (QR) and carries the query's
    id and opcode; anything else is skipped until the deadline.  The
    receive deadline runs on the injectable ``clock`` — the same one
    the server side stamps its query log with — so tests can drive the
    timeout deterministically instead of racing ``time.monotonic()``.
    """
    query = Message.make_query(qname, qtype, rrclass, msg_id=msg_id)
    # The numeric (host, port) that recvfrom reports for the server.
    peer = socket.getaddrinfo(*address, socket.AF_INET, socket.SOCK_DGRAM)[0][4]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(query.to_wire(), peer)
        deadline = clock.now() + timeout
        while True:
            remaining = deadline - clock.now()
            if remaining <= 0:
                raise TimeoutError(f"no response from {address}")
            sock.settimeout(remaining)
            wire, source = sock.recvfrom(65535)
            if source != peer:
                continue
            try:
                response = Message.from_wire(wire)
            except (DnsError, ValueError):  # what garbage decodes to
                continue
            if (
                response.is_response
                and response.msg_id == msg_id
                and response.opcode == query.opcode
            ):
                return response
