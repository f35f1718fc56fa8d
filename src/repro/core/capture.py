"""Wire-level capture of simulated traffic (the paper's datasets [19]).

The paper publishes its raw measurement data; this module gives the
simulation the same property at the packet level: a
:class:`CapturingNetwork` wraps :class:`~repro.netsim.network.SimNetwork`
and records every query/response exchange with its actual DNS wire
bytes.  Captures serialize to a compact JSONL format ("pcap-lite") and
can be decoded back into :class:`~repro.dns.message.Message` objects for
offline analysis.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..dns.message import Message
from ..netsim.geo import Location
from ..netsim.network import RoundTrip, SimNetwork


@dataclass(frozen=True)
class CapturedExchange:
    """One query/response pair on the simulated wire."""

    timestamp: float
    client: str
    server: str          # service address
    served_by: str       # site code ("" when lost)
    rtt_ms: float | None
    query_wire: bytes
    response_wire: bytes | None

    def query(self) -> Message:
        return Message.from_wire(self.query_wire)

    def response(self) -> Message | None:
        if self.response_wire is None:
            return None
        return Message.from_wire(self.response_wire)


@dataclass
class Capture:
    """An ordered list of exchanges."""

    exchanges: list[CapturedExchange] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.exchanges)

    def __iter__(self) -> Iterator[CapturedExchange]:
        return iter(self.exchanges)

    def for_server(self, address: str) -> list[CapturedExchange]:
        return [ex for ex in self.exchanges if ex.server == address]

    def for_client(self, address: str) -> list[CapturedExchange]:
        return [ex for ex in self.exchanges if ex.client == address]

    def loss_rate(self) -> float:
        if not self.exchanges:
            return 0.0
        lost = sum(1 for ex in self.exchanges if ex.response_wire is None)
        return lost / len(self.exchanges)


class CapturingNetwork:
    """A :class:`SimNetwork` proxy that records every exchange.

    Drop-in: hand it wherever a network is expected; all attribute
    access is forwarded, only the two send paths are intercepted —
    :meth:`round_trip` (direct probes) and :meth:`transmit` (resolvers
    on the event kernel).  An exchange is stamped with its send time
    and captured when its fate is known, lost ones included.
    """

    def __init__(self, network: SimNetwork, capture: Capture | None = None):
        self._network = network
        self.capture = capture if capture is not None else Capture()

    def _record(
        self, sent_at: float, client: str, server: str, payload: bytes,
        trip: RoundTrip,
    ) -> None:
        self.capture.exchanges.append(
            CapturedExchange(
                timestamp=sent_at,
                client=client,
                server=server,
                served_by=trip.served_by,
                rtt_ms=trip.rtt_ms,
                query_wire=payload,
                response_wire=trip.response,
            )
        )

    def round_trip(
        self,
        client_location: Location,
        client_address: str,
        dst_address: str,
        payload: bytes,
    ) -> RoundTrip:
        trip = self._network.round_trip(
            client_location, client_address, dst_address, payload
        )
        self._record(
            self._network.clock.now, client_address, dst_address, payload, trip
        )
        return trip

    def transmit(
        self,
        kernel,
        client_location: Location,
        client_address: str,
        dst_address: str,
        payload: bytes,
        on_result,
        parent=None,
    ) -> None:
        sent_at = self._network.clock.now

        def capture_then(trip: RoundTrip) -> None:
            self._record(sent_at, client_address, dst_address, payload, trip)
            on_result(trip)

        self._network.transmit(
            kernel, client_location, client_address, dst_address, payload,
            capture_then, parent=parent,
        )

    def __getattr__(self, name):
        return getattr(self._network, name)


def save_capture(capture: Capture, path: str | Path) -> int:
    """Write a capture as JSONL with base64-encoded wire bytes."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"kind": "wire_capture", "version": 1}) + "\n")
        for ex in capture.exchanges:
            fh.write(
                json.dumps(
                    {
                        "t": ex.timestamp,
                        "src": ex.client,
                        "dst": ex.server,
                        "site": ex.served_by,
                        "rtt_ms": ex.rtt_ms,
                        "q": base64.b64encode(ex.query_wire).decode(),
                        "r": base64.b64encode(ex.response_wire).decode()
                        if ex.response_wire is not None
                        else None,
                    }
                )
                + "\n"
            )
    return len(capture.exchanges)


def load_capture(path: str | Path) -> Capture:
    path = Path(path)
    capture = Capture()
    with path.open() as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "wire_capture":
            raise ValueError(f"{path} is not a wire-capture file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            capture.exchanges.append(
                CapturedExchange(
                    timestamp=row["t"],
                    client=row["src"],
                    server=row["dst"],
                    served_by=row["site"],
                    rtt_ms=row["rtt_ms"],
                    query_wire=base64.b64decode(row["q"]),
                    response_wire=base64.b64decode(row["r"])
                    if row["r"] is not None
                    else None,
                )
            )
    return capture
