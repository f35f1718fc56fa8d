"""Structured event log: stream a run's telemetry to disk as JSONL.

PR 1 put telemetry *in memory*; this module gets it *out*.  An
:class:`EventLogWriter` is an append-only JSONL sink with a versioned
header, bounded in-memory buffering, explicit flush, and a drop
counter — the shape ZDNS and ENTRADA use for high-throughput
measurement output.  Attach one to a live
:class:`~repro.telemetry.Telemetry` bundle (``event_log=`` on
:meth:`Telemetry.enabled_bundle`) and the tracer streams every
finished query trace to it as the run progresses; the registry and
the cost ledger contribute snapshot events at run end.

Each line is one event.  The first line is the header::

    {"kind": "repro-event-log", "version": 2, ...}

and every following record carries a ``"kind"`` discriminator:

``trace``
    One finished trace (virtual-time query lifecycle:
    ``resolver.resolve`` → … → ``auth.query``) as ``"spans"``: a flat
    list of rows ``[parent_index, name, t0, t1, attrs, events]`` in
    start order, root first with parent −1, each event a
    ``[time, name, attrs]`` row.  Nothing in a row is private to the
    tracer that wrote it, so logs concatenate and sort without
    rewriting; :func:`encode_trace` / :func:`decode_trace` are the only
    code that knows the layout.
``metrics``
    A full metrics-registry snapshot (the ``to_json`` document).
``costs``
    The per-query cost ledger (``CostLedger.as_dict``), after the
    closing metrics snapshot.
``run_meta``
    Campaign parameters (domain, sites, probes, seed).
``view_comparison``
    A §3.1 client-vs-server vantage comparison result.
``note``
    Free-form point annotation (benchmarks, ad-hoc markers).

:func:`read_events` reconstructs typed events; unknown kinds survive
as :class:`RawEvent` so newer logs degrade gracefully in older
readers (and the ``profile`` records older writers appended still
parse).  :class:`EventLog` is the loaded-and-indexed form.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .tracing import Span, SpanEvent

log = logging.getLogger("repro.telemetry.events")

#: header discriminator of an event-log file.
EVENT_LOG_KIND = "repro-event-log"
#: bump when a record's field list changes incompatibly.
EVENT_SCHEMA_VERSION = 2
#: default in-memory buffer, in events, before an automatic flush.
DEFAULT_MAX_BUFFERED = 1024


class EventLogError(ValueError):
    """The file is not a readable event log (or wrong version)."""


# -- the trace format -------------------------------------------------------


def encode_trace(root: Span) -> list[list]:
    """A trace as flat span rows, ``[parent, name, t0, t1, attrs, events]``.

    Rows follow :attr:`Span.trace` (start order, root first); ``parent``
    is the parent's row index, −1 for the root; ``t1`` is null for an
    unfinished span.  Attribute dicts are referenced, not copied — the
    writer serialises the record before returning to the caller.
    """
    spans = root.trace
    index = {id(span): position for position, span in enumerate(spans)}
    return [
        [
            index.get(id(span.parent), -1),
            span.name,
            span.start,
            span.end,
            span.attributes,
            [[ev.time, ev.name, ev.attributes] for ev in span.events],
        ]
        for span in spans
    ]


def decode_trace(rows: list[list]) -> Span:
    """The root span of the trace :func:`encode_trace` laid out.

    Raises :class:`EventLogError` for an empty trace, a row that is not
    six fields, or a parent that is not −1 or an earlier row.
    """
    if not isinstance(rows, list) or not rows:
        raise EventLogError("a trace needs at least one span row")
    spans: list[Span] = []
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 6:
            raise EventLogError(f"span row {index} is not six fields: {row!r:.80}")
        parent, name, start, end, attributes, events = row
        if type(parent) is not int or not -1 <= parent < index:
            raise EventLogError(
                f"span row {index}: parent {parent!r} is neither -1 "
                "nor an earlier row"
            )
        span = Span(name, start, spans[parent] if parent >= 0 else None)
        span.end = end
        span.attributes = attributes
        span.events = [SpanEvent(*event) for event in events]
        spans.append(span)
    return spans[0]


# -- typed events -----------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """One finished trace, held by its root span."""

    root: Span

    kind = "trace"

    def to_record(self) -> dict:
        return {"kind": self.kind, "spans": encode_trace(self.root)}


@dataclass(frozen=True)
class MetricsSnapshot:
    """A full registry dump at one point in (virtual) time."""

    metrics: dict
    at: float | None = None

    kind = "metrics"

    def to_record(self) -> dict:
        return {"kind": self.kind, "at": self.at, "metrics": self.metrics}


@dataclass(frozen=True)
class CostsEvent:
    """The deterministic per-query cost ledger (``CostLedger.as_dict``).

    Pure seeded-simulation output, summed across shards in the merged
    log.  Its template counters depend on the shard *layout* (each
    shard's servers warm their own template caches), so two logs hold
    the same record when their shard counts match, whatever the worker
    count.
    """

    costs: dict

    kind = "costs"

    def to_record(self) -> dict:
        return {"kind": self.kind, "costs": self.costs}


@dataclass(frozen=True)
class RunMeta:
    """Campaign parameters, emitted once at run start."""

    run: dict
    at: float | None = None

    kind = "run_meta"

    def to_record(self) -> dict:
        return {"kind": self.kind, "at": self.at, "run": self.run}


@dataclass(frozen=True)
class ViewComparisonEvent:
    """A §3.1 middlebox-validation result (client vs. server vantage)."""

    comparison: dict

    kind = "view_comparison"

    def to_record(self) -> dict:
        return {"kind": self.kind, "comparison": self.comparison}


@dataclass(frozen=True)
class Note:
    """Free-form point annotation."""

    name: str
    data: dict = field(default_factory=dict)
    at: float | None = None

    kind = "note"

    def to_record(self) -> dict:
        return {"kind": self.kind, "at": self.at, "name": self.name,
                "data": self.data}


@dataclass(frozen=True)
class RawEvent:
    """An event of a kind this reader does not know (forward compat)."""

    record: dict

    @property
    def kind(self) -> str:
        return str(self.record.get("kind", ""))

    def to_record(self) -> dict:
        return dict(self.record)


def _event_from_record(record: dict):
    """The typed event of one record; :class:`EventLogError` when a known
    kind lacks a field it needs or holds a malformed trace."""
    kind = record.get("kind")
    try:
        if kind == TraceEvent.kind:
            return TraceEvent(root=decode_trace(record["spans"]))
        if kind == MetricsSnapshot.kind:
            return MetricsSnapshot(metrics=record["metrics"], at=record.get("at"))
        if kind == CostsEvent.kind:
            return CostsEvent(costs=record["costs"])
        if kind == RunMeta.kind:
            return RunMeta(run=record["run"], at=record.get("at"))
        if kind == ViewComparisonEvent.kind:
            return ViewComparisonEvent(comparison=record["comparison"])
    except KeyError as exc:
        raise EventLogError(f"{kind} record without {exc}") from None
    if kind == Note.kind:
        return Note(
            name=record.get("name", ""),
            data=record.get("data", {}),
            at=record.get("at"),
        )
    return RawEvent(record=record)


# -- the sink ---------------------------------------------------------------


class EventLogWriter:
    """The one event sink: a JSONL file, or an in-memory list of lines.

    With a ``path`` it is an append-only JSONL log behind the standard
    header line (written eagerly, so even an empty log identifies itself
    and :class:`EventLogFollower` can tail it mid-campaign).  Events are
    serialized at emit time (so callers may mutate their objects
    afterwards) and written in batches: at most ``max_buffered`` lines
    are held in :attr:`lines` before an automatic flush.  With
    ``path=None`` nothing is ever flushed and :attr:`lines` *is* the log
    — what a shard worker ships back over the process boundary.  Both
    modes hold the same text, line for line.

    After :meth:`close`, further emits are *dropped* — counted in
    :attr:`dropped` and logged once at warning level — never raised,
    so telemetry can never take down a run at shutdown; an in-memory
    writer's :attr:`lines` stay readable.  Usable as a context manager.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_buffered: int = DEFAULT_MAX_BUFFERED,
        meta: dict | None = None,
    ):
        if max_buffered <= 0:
            raise ValueError(f"max_buffered must be positive, got {max_buffered}")
        self.path = Path(path) if path is not None else None
        self.max_buffered = max_buffered
        self.emitted = 0
        self.dropped = 0
        #: serialised records not yet on disk — all of them when in memory.
        self.lines: list[str] = []
        self._closed = False
        self._warned = False
        self._fh: io.TextIOBase | None = None
        if self.path is not None:
            self._fh = self.path.open("w")
            header = {"kind": EVENT_LOG_KIND, "version": EVENT_SCHEMA_VERSION}
            if meta:
                header["meta"] = meta
            self._fh.write(json.dumps(header) + "\n")
            self._fh.flush()

    # -- emitting ----------------------------------------------------------

    def emit(self, event) -> bool:
        """Queue one typed event; returns False when it was dropped."""
        return self.emit_line(json.dumps(event.to_record()))

    def emit_line(self, line: str) -> bool:
        """Queue one already-serialised record verbatim.

        The sharded merge passes the shards' trace lines through here
        untouched.
        """
        if self._closed:
            self.dropped += 1
            if not self._warned:
                self._warned = True
                log.warning(
                    "event log %s is closed; dropping further events "
                    "(dropped=%d)", self.path or "(in memory)", self.dropped,
                )
            return False
        self.emitted += 1
        self.lines.append(line)
        if self._fh is not None and len(self.lines) >= self.max_buffered:
            self.flush()
        return True

    def emit_span(self, span: Span) -> bool:
        """Sink hook for :class:`~repro.telemetry.Tracer`: one root span."""
        return self.emit(TraceEvent(root=span))

    def flush(self) -> None:
        """Write every buffered line to disk (a no-op in memory)."""
        if self._fh is not None and self.lines and not self._closed:
            self._fh.write("\n".join(self.lines) + "\n")
            self._fh.flush()
            self.lines.clear()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._fh is not None:
            self._fh.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- reading back ------------------------------------------------------

    def iter_records(self):
        """Every record emitted so far (raw dicts, emit order)."""
        if self.path is None:
            return map(json.loads, self.lines)
        self.flush()
        return iter_raw_records(self.path)

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = repr(str(self.path)) if self.path is not None else "in-memory"
        return (
            f"EventLogWriter({where}, emitted={self.emitted}, "
            f"dropped={self.dropped}, closed={self._closed})"
        )


# -- the reader -------------------------------------------------------------


def _validate_header(path: Path, header_line: str) -> dict:
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise EventLogError(f"{path}: not an event log ({exc})") from None
    if not isinstance(header, dict) or header.get("kind") != EVENT_LOG_KIND:
        raise EventLogError(f"{path}: not an event log (header {header!r})")
    version = header.get("version")
    if version != EVENT_SCHEMA_VERSION:
        raise EventLogError(
            f"{path}: event-log version {version!r}, "
            f"this reader understands {EVENT_SCHEMA_VERSION}"
        )
    return header


def _parse_lines(
    path: object, raw_lines: Iterable[str], start: int = 1
) -> Iterator[tuple[int, str, dict]]:
    """The one JSONL line parser: ``(number, line, record)`` per
    non-blank line, numbered from ``start``.

    A truncated *final* line (no trailing newline — a writer that died
    mid-append, or a log still being written) is skipped with a
    warning; a corrupt line anywhere else raises
    :class:`EventLogError`.
    """
    for number, raw in enumerate(raw_lines, start):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if not raw.endswith("\n"):
                log.warning(
                    "%s: ignoring truncated final line (%d bytes)",
                    path, len(raw),
                )
                return
            raise EventLogError(
                f"{path}: corrupt event line {number}: {line[:80]!r}"
            ) from None
        yield number, line, record


def _typed_events(
    path: object, numbered: Iterable[tuple[int, str, dict]]
) -> Iterator[object]:
    """:func:`_event_from_record` over :func:`_parse_lines` output; a
    malformed record's error names its path and line."""
    for number, _, record in numbered:
        try:
            yield _event_from_record(record)
        except EventLogError as exc:
            raise EventLogError(f"{path}: line {number}: {exc}") from None


def _iter_log(path: str | Path) -> Iterator[tuple[int, str, dict]]:
    """``(number, line, record)`` for every record of a log file,
    header (line 1) validated."""
    path = Path(path)
    with path.open() as fh:
        _validate_header(path, fh.readline())
        yield from _parse_lines(path, fh, 2)


def iter_raw_records(path: str | Path) -> Iterator[dict]:
    """Stream an event log's records as plain dicts, in write order."""
    return (record for _, _, record in _iter_log(path))


def read_events(path: str | Path) -> Iterator[object]:
    """Yield typed events from an event-log file, in write order."""
    return _typed_events(path, _iter_log(path))


def parse_event(line: str):
    """The typed event one serialised log line holds."""
    return _event_from_record(json.loads(line))


def merge_shard_logs(
    sources: Iterable[list[str] | str | Path],
) -> tuple[list[str], list[list[dict]]]:
    """The shards' trace lines in canonical order, and their other records.

    A source is an in-memory writer's :attr:`~EventLogWriter.lines` or
    the path of a spilled segment.  A trace line carries nothing private
    to the tracer that wrote it, so the canonical order of any partition
    of the same traces is a plain sort by (root ``t0``, line text) and
    the lines pass through verbatim.  Everything else (run_meta, notes,
    snapshots) comes back parsed, one list per shard, for the caller to
    reduce.
    """
    keyed: list[tuple[float, str]] = []
    others: list[list[dict]] = []
    for source in sources:
        pairs = (
            _parse_lines("(in memory)", source)
            if isinstance(source, list)
            else _iter_log(source)
        )
        records = []
        for _, line, record in pairs:
            if record.get("kind") == TraceEvent.kind:
                keyed.append((record["spans"][0][2], line))
            else:
                records.append(record)
        others.append(records)
    keyed.sort()
    return [line for _, line in keyed], others


class EventLogFollower:
    """Incremental reader over a live (still growing) event log.

    Opens the file once, validates the header eagerly, and then each
    :meth:`poll` returns the typed events of every newly *completed*
    line.  A final line without its terminating newline — a writer
    mid-append — stays pending until the newline lands, so a tailer
    never sees half a record.  ``repro-dns top --follow`` reads
    through it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = self.path.open()
        try:
            header_line = self._fh.readline()
            if not header_line.endswith("\n"):
                raise EventLogError(f"{self.path}: truncated header line")
            self.header = _validate_header(self.path, header_line)
        except Exception:
            self._fh.close()
            raise
        self.meta: dict = self.header.get("meta", {})
        self.events_read = 0
        self._pending = ""
        #: file line number of the next complete line
        self._line = 2
        self._closed = False

    def poll(self) -> list:
        """Typed events appended (as complete lines) since the last poll."""
        if self._closed:
            return []
        chunk = self._fh.read()
        if not chunk:
            return []
        complete, newline, self._pending = (self._pending + chunk).rpartition("\n")
        if not newline:
            return []
        lines = complete.split("\n")
        events = list(_typed_events(self.path, _parse_lines(
            self.path, (line + "\n" for line in lines), self._line
        )))
        self._line += len(lines)
        self.events_read += len(events)
        return events

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "EventLogFollower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class EventLog:
    """A fully loaded event log, indexed for consumers.

    Analyses iterate :attr:`events` or use the typed accessors.
    """

    path: Path
    meta: dict
    events: list = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "EventLog":
        path = Path(path)
        with path.open() as fh:
            header = _validate_header(path, fh.readline())
            events = list(_typed_events(path, _parse_lines(path, fh, 2)))
        return cls(path=path, meta=header.get("meta", {}), events=events)

    def __len__(self) -> int:
        return len(self.events)

    def traces(self) -> list[Span]:
        """Every streamed trace's root span, in finish order."""
        return [event.root for event in self.events
                if isinstance(event, TraceEvent)]

    def last_metrics(self) -> dict | None:
        """The final metrics snapshot (the run's end state), if any."""
        for event in reversed(self.events):
            if isinstance(event, MetricsSnapshot):
                return event.metrics
        return None

    def run_meta(self) -> dict | None:
        for event in self.events:
            if isinstance(event, RunMeta):
                return event.run
        return None


__all__ = [
    "CostsEvent",
    "DEFAULT_MAX_BUFFERED",
    "EVENT_LOG_KIND",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "EventLogError",
    "EventLogFollower",
    "EventLogWriter",
    "MetricsSnapshot",
    "Note",
    "RawEvent",
    "RunMeta",
    "TraceEvent",
    "ViewComparisonEvent",
    "decode_trace",
    "encode_trace",
    "iter_raw_records",
    "merge_shard_logs",
    "parse_event",
    "read_events",
]
