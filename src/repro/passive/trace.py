"""Passive trace format: what a DITL / ENTRADA capture gives the analyst.

A trace is a time-ordered sequence of per-query records (timestamp,
recursive address, which server was queried).  Readers/writers use JSON
Lines so synthetic traces can be stored and re-analyzed like the
paper's datasets.  No cold-cache control and no RTT data — exactly the
limitations the paper notes for its passive datasets (§3.2).

A :class:`Trace` is a :class:`~repro.core.columns.ColumnTable`, like
:class:`~repro.core.store.ObservationStore`: ``timestamps`` is an
``array('d')``, and each string field (``recursive``, ``server_id``,
``qname``, ``qtype``) is an ``array('i')`` of ids into one intern table
(``strings``) the four share — 24 bytes a record and no Python object
per record.  :attr:`Trace.records` is the read-only row view that
builds a :class:`TraceRecord` on read and keeps none.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from ..core.columns import (
    ColumnTable, InternTable, extend_all, load_jsonl, save_jsonl, typed_values,
)

#: The JSONL row keys of :func:`save_trace`, in :class:`TraceRecord`
#: field order, and the types each may hold.
_JSONL_SCHEMA = (
    ("t", (float, int)), ("src", (str,)), ("srv", (str,)), ("qname", (str,)), ("qtype", (str,))
)


class TraceRecord(NamedTuple):
    """One captured query: a row of a :class:`Trace`."""

    timestamp: float
    recursive: str      # recursive resolver source address
    server_id: str      # which authoritative (root letter / NS name)
    qname: str = ""
    qtype: str = "A"


class Trace(ColumnTable):
    """A capture: record columns plus the set of servers the capture covers."""

    __slots__ = (
        "observed_servers", "timestamps", "recursive", "server_id",
        "qname", "qtype", "strings",
    )
    #: in :class:`TraceRecord` field order
    COLUMNS = (
        ("timestamps", "d"), ("recursive", "i"), ("server_id", "i"),
        ("qname", "i"), ("qtype", "i"),
    )
    ROW = TraceRecord

    def __init__(
        self,
        observed_servers: Iterable[str],
        records: Iterable[TraceRecord] = (),
    ):
        super().__init__()
        self.observed_servers = tuple(observed_servers)
        #: intern table of the four string columns
        self.strings = InternTable()
        for record in records:
            self.append(*record)

    def append(
        self,
        timestamp: float,
        recursive: str,
        server_id: str,
        qname: str = "",
        qtype: str = "A",
    ) -> None:
        """Add one record at the end (the caller keeps time order); a
        value that does not fit its column leaves every column as it was."""
        ids = map(self.strings.intern, (recursive, server_id, qname, qtype))
        extend_all(zip(self.columns, zip((timestamp, *ids))))  # each value as a 1-tuple

    def append_dict(self, row: dict) -> None:
        """Append one row of the JSONL schema (:func:`save_trace`); a
        missing key or a value of the wrong type appends nothing."""
        self.append(*typed_values({"qname": "", "qtype": "A", **row}, _JSONL_SCHEMA))

    def _fields(self, columns: list, positions: slice | None) -> list:
        name = self.strings.values.__getitem__
        timestamps, *ids = columns
        return [timestamps, *(map(name, column) for column in ids)]

    records = ColumnTable.rows

    query_count = property(ColumnTable.__len__)

    def recursive_count(self) -> int:
        return len(set(self.recursive))

    def queries_per_recursive(self) -> dict[str, int]:
        """recursive → captured queries, in order of first appearance."""
        return self._totals(self.recursive)

    def queries_per_server(self) -> dict[str, int]:
        """server_id → captured queries, in order of first appearance."""
        return self._totals(self.server_id)

    def _totals(self, column) -> dict[str, int]:
        strings = self.strings.values
        return {strings[sid]: n for sid, n in Counter(column).items()}

    def queries_by_recursive(self) -> dict[str, dict[str, int]]:
        """recursive → {server_id: count}: the Figure 7 input shape."""
        strings = self.strings.values
        table: dict[str, dict[str, int]] = {}
        for (recursive, server), n in Counter(
            zip(self.recursive, self.server_id)
        ).items():
            table.setdefault(strings[recursive], {})[strings[server]] = n
        return table


def save_trace(trace: Trace, path: str | Path) -> int:
    rows = (
        {"t": t, "src": src, "srv": srv, "qname": qname, "qtype": qtype}
        for t, src, srv, qname, qtype in trace.records
    )
    save_jsonl(path, "passive_trace", {"observed": list(trace.observed_servers)}, rows)
    return trace.query_count


def _open_trace(header: dict):
    observed = header["observed"]
    if not isinstance(observed, list):
        raise ValueError("'observed' is not a list")
    trace = Trace(observed_servers=observed)
    return trace, trace.append_dict


def load_trace(path: str | Path) -> Trace:
    """Read a trace :func:`save_trace` wrote (``ValueError`` naming
    ``file:line`` on a malformed header or row)."""
    return load_jsonl(path, "passive_trace", _open_trace)
