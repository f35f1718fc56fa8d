"""Passive trace format: what a DITL / ENTRADA capture gives the analyst.

A trace is a time-ordered sequence of per-query records (timestamp,
recursive address, which server was queried).  Readers/writers use JSON
Lines so synthetic traces can be stored and re-analyzed like the
paper's datasets.  No cold-cache control and no RTT data — exactly the
limitations the paper notes for its passive datasets (§3.2).

A :class:`Trace` stores its records as columns, the way
:class:`~repro.core.store.ObservationStore` does: ``timestamps`` is an
``array('d')``, and each string field (``recursive``, ``server_id``,
``qname``, ``qtype``) is an ``array('i')`` of ids into one intern table
(``strings``) the four share — 24 bytes a record and no Python object
per record.  :attr:`Trace.records` is a read-only row view that builds a
:class:`TraceRecord` on read and keeps none.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple


class TraceRecord(NamedTuple):
    """One captured query: a row of a :class:`Trace`."""

    timestamp: float
    recursive: str      # recursive resolver source address
    server_id: str      # which authoritative (root letter / NS name)
    qname: str = ""
    qtype: str = "A"


class Trace:
    """A capture: record columns plus the set of servers the capture covers."""

    __slots__ = (
        "observed_servers", "timestamps", "recursive", "server_id",
        "qname", "qtype", "strings", "_string_ids",
    )

    def __init__(
        self,
        observed_servers: Iterable[str],
        records: Iterable[TraceRecord] = (),
    ):
        self.observed_servers = tuple(observed_servers)
        self.timestamps = array("d")
        self.recursive = array("i")
        self.server_id = array("i")
        self.qname = array("i")
        self.qtype = array("i")
        #: intern table of the string columns: id -> str, and the reverse.
        self.strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        for record in records:
            self.append(*record)

    def intern(self, text: str) -> int:
        """The intern-table id of ``text``, adding it on first sight."""
        ids = self._string_ids
        sid = ids.get(text)
        if sid is None:
            sid = ids[text] = len(self.strings)
            self.strings.append(text)
        return sid

    def append(
        self,
        timestamp: float,
        recursive: str,
        server_id: str,
        qname: str = "",
        qtype: str = "A",
    ) -> None:
        """Add one record at the end (the caller keeps time order)."""
        ids = map(self.intern, (recursive, server_id, qname, qtype))
        for column, value in zip(self.columns, (timestamp, *ids)):
            column.append(value)

    @property
    def columns(self) -> tuple[array, ...]:
        """``timestamps`` then the id columns, in :class:`TraceRecord` order."""
        return (
            self.timestamps, self.recursive, self.server_id, self.qname, self.qtype
        )

    @property
    def records(self) -> TraceRows:
        return TraceRows(self)

    @property
    def query_count(self) -> int:
        return len(self.timestamps)

    def recursive_count(self) -> int:
        return len(set(self.recursive))

    def queries_per_recursive(self) -> dict[str, int]:
        """recursive → captured queries, in order of first appearance."""
        return self._totals(self.recursive)

    def queries_per_server(self) -> dict[str, int]:
        """server_id → captured queries, in order of first appearance."""
        return self._totals(self.server_id)

    def _totals(self, column: array) -> dict[str, int]:
        strings = self.strings
        return {strings[sid]: n for sid, n in Counter(column).items()}

    def queries_by_recursive(self) -> dict[str, dict[str, int]]:
        """recursive → {server_id: count}: the Figure 7 input shape."""
        strings = self.strings
        table: dict[str, dict[str, int]] = {}
        for (recursive, server), n in Counter(
            zip(self.recursive, self.server_id)
        ).items():
            table.setdefault(strings[recursive], {})[strings[server]] = n
        return table


class TraceRows:
    """Read-only row view of a :class:`Trace`: ``len``, iteration, int
    and slice indexing, and equality with another view or a list."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.timestamps)

    def __iter__(self):
        trace = self._trace
        return _rows(trace.strings, *trace.columns)

    def __getitem__(self, index):
        trace = self._trace
        if isinstance(index, slice):
            return list(_rows(trace.strings, *(c[index] for c in trace.columns)))
        timestamp, *ids = (column[index] for column in trace.columns)
        return TraceRecord(timestamp, *map(trace.strings.__getitem__, ids))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TraceRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )


def _rows(strings: list[str], timestamps: array, *id_columns: array):
    """Rows built on the fly from columns: nothing is kept."""
    name = strings.__getitem__
    return map(TraceRecord, timestamps, *(map(name, ids) for ids in id_columns))


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
    return trace.query_count


def _json_object(path: Path, number: int, line: str) -> dict:
    """Line ``number`` of ``path`` as a JSON object, or a ``ValueError``."""
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{number}: not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}:{number}: not a JSON object: {line[:80]!r}")
    return value


def load_trace(path: str | Path) -> Trace:
    path = Path(path)
    with path.open() as fh:
        header = _json_object(path, 1, fh.readline())
        observed = header.get("observed")
        if header.get("kind") != "passive_trace" or not isinstance(observed, list):
            raise ValueError(f"{path}:1: not a passive-trace header")
        trace = Trace(observed_servers=observed)
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = _json_object(path, number, line)
            try:
                trace.append(
                    row["t"],
                    row["src"],
                    row["srv"],
                    row.get("qname", ""),
                    row.get("qtype", "A"),
                )
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{number}: passive-trace row lacks {exc}"
                ) from None
            except TypeError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return trace
