"""Query-lifecycle tracing: spans and events in virtual time.

A *span* is one timed operation (a resolution, one exchange attempt, a
network round trip, an authoritative lookup); an *event* is a point
annotation inside a span (cache miss, loss, anycast catchment choice).
Spans form trees: the tracer keeps an active-span stack, so a component
that starts a span while another is open automatically becomes its
child.  That is how one cache-busting query strings the layers together
without any layer knowing about the others::

    resolver.resolve            (RecursiveResolver)
    └─ resolver.exchange        (one attempt against one NS)
       └─ net.round_trip        (SimNetwork: RTT draw, loss, catchment)
          └─ auth.query         (AuthoritativeServer: lookup + rcode)

All timestamps are *virtual* (the shared ``SimClock``), passed
explicitly by the caller — the tracer never reads a clock itself, so
the same machinery also serves real transports fed a wall clock.

In memory a trace is one flat list, :attr:`Span.trace`: every span of
the trace in start order, root first, each pointing at its ``parent``.
Readers that filter spans by name iterate that list; the two that need
children (:func:`render_trace`, ``critical_path``) index it locally.

:class:`~repro.telemetry.bundle.NullTracer` is the zero-cost default,
beside the bundle; components guard their instrumentation on
``tracer.enabled``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

log = logging.getLogger("repro.telemetry.tracing")

#: sentinel for ``start_span(parent=...)``: "use the active-span stack".
#: ``None`` is a meaningful value there (start a new root), so the
#: default must be a distinct object.
_USE_STACK = object()


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation inside a span."""

    time: float
    name: str
    attributes: dict[str, object] = field(default_factory=dict)


class Span:
    """One timed operation of a trace.

    ``trace`` is the flat list the trace's root owns and every span of
    the trace shares: all of them, root first, in start order.
    """

    __slots__ = (
        "name", "parent", "trace", "start", "end", "attributes", "events",
    )

    def __init__(self, name: str, start: float, parent: "Span | None" = None):
        self.name = name
        self.parent = parent
        if parent is None:
            self.trace: list[Span] = [self]
        else:
            self.trace = parent.trace
            self.trace.append(self)
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, object] = {}
        self.events: list[SpanEvent] = []

    # -- recording ---------------------------------------------------------

    def set(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def event(self, name: str, at: float, **attributes: object) -> "Span":
        self.events.append(SpanEvent(at, name, attributes))
        return self

    # -- reading ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def find(self, name: str) -> "Span | None":
        """First span of this span's trace with the given name."""
        for span in self.trace:
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:
        return f"Span({self.name!r}, start={self.start:.6f}, end={self.end})"


def children_index(root: Span) -> dict[int, list[Span]]:
    """``id(span)`` → that span's children in start order, for one trace."""
    index: dict[int, list[Span]] = {}
    for span in root.trace:
        if span.parent is not None:
            index.setdefault(id(span.parent), []).append(span)
    return index


class Tracer:
    """Builds traces and retains the finished ones for analysis.

    ``max_traces`` bounds memory on long campaigns: once that many root
    spans are retained, further finished traces are counted in
    :attr:`dropped_traces` and discarded whole.  Drops of traces that
    were *not* streamed to a sink first are real data loss: they are
    counted separately in :attr:`dropped_unstreamed` and warned about
    once per tracer — the same accounting the event-log writer applies
    to post-close emits.

    ``sink`` is an optional event-log writer (anything with an
    ``emit_span(span)`` method, e.g.
    :class:`~repro.telemetry.events.EventLogWriter`): every finished
    *root* span is streamed to it, whether or not it was retained in
    memory — disk is the unbounded store, ``roots`` the working set.
    """

    enabled = True

    def __init__(self, max_traces: int = 100_000, sink=None):
        self.max_traces = max_traces
        self.sink = sink
        self.roots: list[Span] = []
        self.dropped_traces = 0
        self.dropped_unstreamed = 0
        self._drop_warned = False
        self._stack: list[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self, name: str, at: float, parent=_USE_STACK, **attributes: object
    ) -> Span:
        """Open a span at virtual time ``at``.

        By default the span nests under the active one and becomes the
        new top of the active-span stack — the right behaviour for
        synchronous call trees.  Event-driven code interleaves many
        resolutions, so the stack cannot describe its nesting: pass
        ``parent=`` explicitly (a :class:`Span`, or ``None`` for a new
        root) and the span is attached there *without* touching the
        stack.  Use :meth:`activate`/:meth:`deactivate` around a
        handler call if spans started inside it should nest under an
        explicitly-parented span.
        """
        if parent is _USE_STACK:
            parent = self._stack[-1] if self._stack else None
            push = True
        else:
            push = False
        span = Span(name, at, parent)
        if attributes:
            span.attributes = attributes
        if push:
            self._stack.append(span)
        return span

    def activate(self, span: Span) -> None:
        """Make ``span`` the active parent for stack-nested child spans."""
        self._stack.append(span)

    def deactivate(self, span: Span) -> None:
        """Undo :meth:`activate`; tolerant of unbalanced nesting."""
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    def finish_span(self, span: Span, at: float) -> None:
        """Close a span; root spans are retained (up to ``max_traces``)."""
        span.end = at
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: unbalanced finish
            self._stack.remove(span)
        if span.parent is None:
            streamed = False
            if self.sink is not None:
                streamed = bool(self.sink.emit_span(span))
            if len(self.roots) < self.max_traces:
                self.roots.append(span)
            else:
                self.dropped_traces += 1
                if not streamed:
                    # The trace exists nowhere now: not in memory, not
                    # on disk.  Shard workers run with max_traces=0 and
                    # a recording sink on purpose — that path streams,
                    # so it never lands here.
                    self.dropped_unstreamed += 1
                    if not self._drop_warned:
                        self._drop_warned = True
                        log.warning(
                            "tracer reached max_traces=%d; discarding "
                            "further finished traces (this is logged once; "
                            "see dropped_traces / repro-dns metrics)",
                            self.max_traces,
                        )

    # -- queries ------------------------------------------------------------

    def traces(self) -> list[Span]:
        """Retained root spans, in finish order."""
        return list(self.roots)


def _format_attrs(span: Span) -> str:
    if not span.attributes:
        return ""
    parts = " ".join(f"{key}={value}" for key, value in span.attributes.items())
    return f" {parts}"


def render_trace(root: Span) -> str:
    """ASCII tree of one trace, with virtual-time offsets in ms."""
    lines: list[str] = []
    epoch = root.start
    children = children_index(root)

    def visit(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        offset_ms = (span.start - epoch) * 1000.0
        duration = span.duration_s
        timing = f"[+{offset_ms:.1f}ms"
        timing += f" {duration * 1000.0:.1f}ms]" if duration is not None else " open]"
        if is_root:
            lines.append(f"{span.name} {timing}{_format_attrs(span)}")
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(f"{prefix}{connector}{span.name} {timing}{_format_attrs(span)}")
            child_prefix = prefix + ("   " if is_last else "│  ")
        items: list[tuple[str, object]] = [
            ("span", c) for c in children.get(id(span), ())
        ]
        items += [("event", ev) for ev in span.events]

        def sort_key(item):
            kind, obj = item
            return obj.start if kind == "span" else obj.time

        items.sort(key=sort_key)
        for index, (kind, obj) in enumerate(items):
            last = index == len(items) - 1
            if kind == "span":
                visit(obj, child_prefix, last, False)
            else:
                connector = "└─ " if last else "├─ "
                offset = (obj.time - epoch) * 1000.0
                attrs = ""
                if obj.attributes:
                    attrs = " " + " ".join(
                        f"{key}={value}" for key, value in obj.attributes.items()
                    )
                lines.append(
                    f"{child_prefix}{connector}· {obj.name} [+{offset:.1f}ms]{attrs}"
                )

    visit(root, "", True, True)
    return "\n".join(lines)


__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "render_trace",
]
