"""Structured event log: stream a run's telemetry to disk as JSONL.

PR 1 put telemetry *in memory*; this module gets it *out*.  An
:class:`EventLogWriter` is an append-only JSONL sink with a versioned
header, bounded in-memory buffering, explicit flush, and a drop
counter — the shape ZDNS and ENTRADA use for high-throughput
measurement output.  Attach one to a live
:class:`~repro.telemetry.Telemetry` bundle (``event_log=`` on
:meth:`Telemetry.enabled_bundle`) and the tracer streams every
finished query trace to it as the run progresses; the registry and
profiler contribute snapshot events at run end.

Each line is one event.  The first line is the header::

    {"kind": "repro-event-log", "version": 1, ...}

and every following record carries a ``"kind"`` discriminator:

``trace``
    One finished root span with its whole subtree (virtual-time query
    lifecycle: ``resolver.resolve`` → … → ``auth.query``).
``metrics``
    A full metrics-registry snapshot (the ``to_json`` document).
``profile``
    The run profiler's wall-clock phases, counters, and values.
``run_meta``
    Campaign parameters (domain, sites, probes, seed).
``view_comparison``
    A §3.1 client-vs-server vantage comparison result.
``note``
    Free-form point annotation (benchmarks, ad-hoc markers).

:func:`read_events` reconstructs typed events; unknown kinds survive
as :class:`RawEvent` so newer logs degrade gracefully in older
readers.  :class:`EventLog` is the loaded-and-indexed form the
dashboard consumes.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .tracing import Span

log = logging.getLogger("repro.telemetry.events")

#: header discriminator of an event-log file.
EVENT_LOG_KIND = "repro-event-log"
#: bump when a record's field list changes incompatibly.
EVENT_SCHEMA_VERSION = 1
#: default in-memory buffer, in events, before an automatic flush.
DEFAULT_MAX_BUFFERED = 1024


class EventLogError(ValueError):
    """The file is not a readable event log (or wrong version)."""


# -- typed events -----------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """One finished trace: the root span and its whole subtree."""

    root: Span

    kind = "trace"

    def to_record(self) -> dict:
        return {"kind": self.kind, "root": self.root.to_dict()}


@dataclass(frozen=True)
class MetricsSnapshot:
    """A full registry dump at one point in (virtual) time."""

    metrics: dict
    at: float | None = None

    kind = "metrics"

    def to_record(self) -> dict:
        return {"kind": self.kind, "at": self.at, "metrics": self.metrics}


@dataclass(frozen=True)
class ProfileEvent:
    """The simulator's own wall-clock phases and counters."""

    profile: dict

    kind = "profile"

    def to_record(self) -> dict:
        return {"kind": self.kind, "profile": self.profile}


@dataclass(frozen=True)
class CostsEvent:
    """The deterministic per-query cost ledger (``CostLedger.as_dict``).

    Unlike :class:`ProfileEvent` this payload is pure seeded-simulation
    output, but its template counters depend on the shard *layout* (each
    shard's servers warm their own template caches), so — like profile
    events — it is excluded from the canonical merged log and compared
    across worker counts at equal shard counts instead.
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


def span_from_dict(data: dict, parent: Span | None = None) -> Span:
    """Rebuild a :class:`Span` tree from its ``to_dict`` form."""
    span = Span(
        data["name"],
        int(data["span_id"]),
        int(data["trace_id"]),
        float(data["start"]),
        parent,
    )
    span.end = data["end"]
    span.attributes.update(data.get("attributes", {}))
    for event in data.get("events", ()):
        span.event(event["name"], event["time"], **event.get("attributes", {}))
    for child in data.get("children", ()):
        span.children.append(span_from_dict(child, span))
    return span


def _canonical_key(key: object) -> str:
    """The string a JSON round trip would coerce a dict key to."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return str(int(key))
    if isinstance(key, float):
        return float.__repr__(key)
    raise TypeError(
        f"dict key of type {type(key).__name__} is not JSON-serializable"
    )


def canonical_json_value(value: object):
    """What ``json.loads(json.dumps(value))`` returns, without the text pass.

    An in-memory :class:`EventLogWriter` needs each record to be (a)
    detached from the caller's still-mutable objects and (b) plain JSON —
    the shape the merge helpers sort on.  A serialize/parse round trip guarantees
    both but pays for encoding and decoding every byte; this builds the
    same result directly: dict keys are string-coerced, tuples become
    lists, bool/int/float subclasses (enums) collapse to their plain
    values, and non-JSON types raise ``TypeError`` just as ``dumps``
    would.
    """
    if value is None or value is True or value is False:
        return value
    if isinstance(value, str):
        return str(value)
    if isinstance(value, dict):
        return {
            _canonical_key(key): canonical_json_value(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical_json_value(item) for item in value]
    if isinstance(value, bool):  # bool subclass guard before int
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON-serializable"
    )


def _event_from_record(record: dict):
    kind = record.get("kind")
    if kind == TraceEvent.kind:
        return TraceEvent(root=span_from_dict(record["root"]))
    if kind == MetricsSnapshot.kind:
        return MetricsSnapshot(metrics=record["metrics"], at=record.get("at"))
    if kind == ProfileEvent.kind:
        return ProfileEvent(profile=record["profile"])
    if kind == CostsEvent.kind:
        return CostsEvent(costs=record["costs"])
    if kind == RunMeta.kind:
        return RunMeta(run=record["run"], at=record.get("at"))
    if kind == ViewComparisonEvent.kind:
        return ViewComparisonEvent(comparison=record["comparison"])
    if kind == Note.kind:
        return Note(
            name=record.get("name", ""),
            data=record.get("data", {}),
            at=record.get("at"),
        )
    return RawEvent(record=record)


# -- the sink ---------------------------------------------------------------


class EventLogWriter:
    """The one event sink: a JSONL file, or an in-memory record list.

    With a ``path`` it is an append-only JSONL log behind the standard
    header line (written eagerly, so even an empty log identifies itself
    and :class:`EventLogFollower` can tail it mid-campaign).  Events are
    serialized at emit time (so callers may mutate their objects
    afterwards) and written in batches: at most ``max_buffered`` lines
    are held before an automatic flush.  With ``path=None`` each event's
    canonical plain-JSON record (:func:`canonical_json_value`) is kept in
    :attr:`records` instead — what a shard worker ships back over the
    process boundary.  ``json.dumps`` of a record and of its canonical
    form are the same text, so both modes hold the same log.

    ``shard`` tags every record with the emitting shard's index so a
    merged stream stays attributable until normalization strips it.

    After :meth:`close`, further emits are *dropped* — counted in
    :attr:`dropped` and logged once at warning level — never raised,
    so telemetry can never take down a run at shutdown; an in-memory
    writer's :attr:`records` stay readable.  Usable as a context manager.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        shard: int | None = None,
        max_buffered: int = DEFAULT_MAX_BUFFERED,
        meta: dict | None = None,
    ):
        if max_buffered <= 0:
            raise ValueError(f"max_buffered must be positive, got {max_buffered}")
        self.path = Path(path) if path is not None else None
        self.shard = shard
        self.max_buffered = max_buffered
        self.emitted = 0
        self.dropped = 0
        self.records: list[dict] = []
        self._buffer: list[str] = []
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
        if self._closed:
            self.dropped += 1
            if not self._warned:
                self._warned = True
                log.warning(
                    "event log %s is closed; dropping further events "
                    "(dropped=%d)", self.path or "(in memory)", self.dropped,
                )
            return False
        record = event.to_record()
        if self.shard is not None:
            record["shard"] = self.shard
        self.emitted += 1
        if self._fh is None:
            self.records.append(canonical_json_value(record))
            return True
        self._buffer.append(json.dumps(record))
        if len(self._buffer) >= self.max_buffered:
            self.flush()
        return True

    def emit_span(self, span: Span) -> bool:
        """Sink hook for :class:`~repro.telemetry.Tracer`: one root span."""
        return self.emit(TraceEvent(root=span))

    def flush(self) -> None:
        """Write every buffered line to disk."""
        if self._buffer and not self._closed:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._fh.flush()
            self._buffer.clear()

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
            return iter(self.records)
        self.flush()
        return iter_raw_records(self.path)

    def of_kind(self, kind: str) -> list[dict]:
        return [
            record
            for record in self.iter_records()
            if record.get("kind") == kind
        ]

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = repr(str(self.path)) if self.path is not None else "in-memory"
        return (
            f"EventLogWriter({where}, shard={self.shard}, "
            f"emitted={self.emitted}, dropped={self.dropped}, "
            f"closed={self._closed})"
        )


class NullEventSink:
    """Same surface as :class:`EventLogWriter`, all no-ops."""

    enabled = False
    emitted = 0
    dropped = 0
    closed = False
    path = None

    def emit(self, event) -> bool:
        return False

    def emit_span(self, span) -> bool:
        return False

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_EVENT_SINK = NullEventSink()


def iter_raw_records(path: str | Path):
    """Stream an event log's records as plain dicts, header validated.

    The merge side of a spilled shard segment: the same raw-dict stream
    an in-memory :class:`EventLogWriter` holds in ``records``.
    """
    path = Path(path)
    with path.open() as fh:
        _validate_header(path, fh.readline())
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def _strip_span_ids(node: dict) -> dict:
    """A span dict without its tracer-private ids, children recursed."""
    clean = {
        key: value
        for key, value in node.items()
        if key not in ("span_id", "trace_id", "children")
    }
    clean["children"] = [
        _strip_span_ids(child) for child in node.get("children", ())
    ]
    return clean


def _renumber_span(node: dict, trace_id: int, counter: list[int]) -> None:
    node["trace_id"] = trace_id
    node["span_id"] = counter[0]
    counter[0] += 1
    for child in node.get("children", ()):
        _renumber_span(child, trace_id, counter)


def normalize_trace_records(records: list[dict]) -> list[dict]:
    """Canonical, shard-independent form of a set of trace records.

    Each worker's tracer hands out trace/span ids from its own private
    sequence, so the same logical traces differ between a serial run
    and any sharded partition.  Normalization erases that: traces sort
    by (virtual start time, id-stripped content) — a total order up to
    genuinely identical traces — then trace ids are reassigned 1..N in
    that order and span ids depth-first from one global counter.  Any
    partition of the same traces normalizes to the same byte sequence;
    shard tags are dropped.
    """
    keyed: list[tuple[float, str, dict]] = []
    for record in records:
        root = _strip_span_ids(record["root"])
        keyed.append(
            (float(root["start"]), json.dumps(root, sort_keys=True), root)
        )
    keyed.sort(key=lambda item: (item[0], item[1]))
    counter = [1]
    normalized: list[dict] = []
    for index, (_, _, root) in enumerate(keyed):
        _renumber_span(root, index + 1, counter)
        normalized.append({"kind": TraceEvent.kind, "root": root})
    return normalized


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


def read_events(path: str | Path) -> Iterator[object]:
    """Yield typed events from an event-log file, in write order.

    A truncated *final* line (no trailing newline — a writer that died
    mid-append, or a log still being written) is skipped with a
    warning; a corrupt line anywhere else raises
    :class:`EventLogError`.
    """
    path = Path(path)
    with path.open() as fh:
        _validate_header(path, fh.readline())
        for raw in fh:
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
                    f"{path}: corrupt event line: {line[:80]!r}"
                ) from None
            yield _event_from_record(record)


class EventLogFollower:
    """Incremental reader over a live (still growing) event log.

    Opens the file once, validates the header eagerly, and then each
    :meth:`poll` returns the typed events of every newly *completed*
    line.  A final line without its terminating newline — a writer
    mid-append — stays pending until the newline lands, so a tailer
    never sees half a record.  ``repro-dns top`` and
    ``dashboard --follow`` share this as their transport.
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
        self._closed = False

    def poll(self) -> list:
        """Typed events appended (as complete lines) since the last poll."""
        if self._closed:
            return []
        chunk = self._fh.read()
        if not chunk:
            return []
        complete, sep, tail = (self._pending + chunk).rpartition("\n")
        self._pending = tail if sep else complete + tail
        if not sep:
            return []
        events = []
        for line in complete.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise EventLogError(
                    f"{self.path}: corrupt event line: {line[:80]!r}"
                ) from None
            events.append(_event_from_record(record))
        self.events_read += len(events)
        return events

    def drain(self) -> list:
        """Every event currently complete in the file (one big poll)."""
        return self.poll()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered from an incomplete final line."""
        return len(self._pending)

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

    The dashboard renders from one of these; analyses iterate
    :attr:`events` or use the typed accessors.
    """

    path: Path
    meta: dict
    events: list = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "EventLog":
        path = Path(path)
        with path.open() as fh:
            header = json.loads(fh.readline())
        if header.get("kind") != EVENT_LOG_KIND:
            raise EventLogError(f"{path}: not an event log")
        return cls(
            path=path,
            meta=header.get("meta", {}),
            events=list(read_events(path)),
        )

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list:
        return [event for event in self.events if event.kind == kind]

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

    def profile(self) -> dict | None:
        for event in reversed(self.events):
            if isinstance(event, ProfileEvent):
                return event.profile
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
    "NULL_EVENT_SINK",
    "Note",
    "NullEventSink",
    "ProfileEvent",
    "RawEvent",
    "RunMeta",
    "TraceEvent",
    "ViewComparisonEvent",
    "canonical_json_value",
    "iter_raw_records",
    "normalize_trace_records",
    "read_events",
    "span_from_dict",
]
