"""Passive trace format: what a DITL / ENTRADA capture gives the analyst.

A trace is a flat list of per-query records (timestamp, recursive
address, which server was queried).  Readers/writers use JSON Lines so
synthetic traces can be stored and re-analyzed like the paper's
datasets.  No cold-cache control and no RTT data — exactly the
limitations the paper notes for its passive datasets (§3.2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class TraceRecord:
    """One captured query."""

    timestamp: float
    recursive: str      # recursive resolver source address
    server_id: str      # which authoritative (root letter / NS name)
    qname: str = ""
    qtype: str = "A"


@dataclass
class Trace:
    """A capture: records plus the set of servers the capture covers."""

    observed_servers: tuple[str, ...]
    records: list[TraceRecord] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.records)

    def recursive_count(self) -> int:
        return len({record.recursive for record in self.records})

    def queries_by_recursive(self) -> dict[str, dict[str, int]]:
        """recursive → {server_id: count}: the Figure 7 input shape."""
        table: dict[str, dict[str, int]] = {}
        for record in self.records:
            counts = table.setdefault(record.recursive, {})
            counts[record.server_id] = counts.get(record.server_id, 0) + 1
        return table


def save_trace(trace: Trace, path: str | Path) -> int:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(
            json.dumps(
                {"kind": "passive_trace", "observed": list(trace.observed_servers)}
            )
            + "\n"
        )
        for record in trace.records:
            fh.write(
                json.dumps(
                    {
                        "t": record.timestamp,
                        "src": record.recursive,
                        "srv": record.server_id,
                        "qname": record.qname,
                        "qtype": record.qtype,
                    }
                )
                + "\n"
            )
    return len(trace.records)


def load_trace(path: str | Path) -> Trace:
    path = Path(path)
    with path.open() as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "passive_trace":
            raise ValueError(f"{path} is not a passive-trace file")
        trace = Trace(observed_servers=tuple(header["observed"]))
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            trace.records.append(
                TraceRecord(
                    timestamp=row["t"],
                    recursive=row["src"],
                    server_id=row["srv"],
                    qname=row.get("qname", ""),
                    qtype=row.get("qtype", "A"),
                )
            )
    return trace
