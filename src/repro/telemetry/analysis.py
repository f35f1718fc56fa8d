"""Trace analytics: critical paths, latency attribution, forensics.

The tracer records *what happened* — the spans of every query
lifecycle (``resolver.resolve`` → ``resolver.exchange`` →
``net.round_trip`` → ``auth.query``).  This module answers *why it was
slow*: which NS absorbed the virtual time, which resolver kept paying
it, and whether the pain lines up with an injected fault window.

Everything here is deterministic over its input: ties in every sort
break on content (start time, qname) and then on input order, never on
dict order or object identity, so the same event log always yields the same
forensics report.  Inputs can be a live :class:`~repro.telemetry.Tracer`
or a saved event log — both reduce to a list of root
:class:`~repro.telemetry.Span` objects plus the log's fault notes.

Unfinished spans (``end is None`` — a crashed or still-running
producer) are handled throughout: they contribute zero duration rather
than poisoning an aggregate, and the critical path simply stops where
timing information runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .events import EventLog, Note
from .tracing import Span, children_index, render_trace

#: span names of the query lifecycle, outermost first.
RESOLVE_SPAN = "resolver.resolve"
EXCHANGE_SPAN = "resolver.exchange"


def _duration_ms(span: Span) -> float:
    """Span duration in ms; unfinished spans count as zero."""
    if span.end is None:
        return 0.0
    return (span.end - span.start) * 1000.0


def critical_path(root: Span) -> list[Span]:
    """The root-to-leaf chain of spans that determined the end time.

    At each level the walk descends into the finished child whose end
    is latest — the child the parent actually waited for.  Ties break
    on (end, start, position); unfinished children are skipped, so the
    path stops where timing information runs out.
    """
    children = children_index(root)
    path = [root]
    node = root
    while True:
        finished = [
            (child.end, child.start, index, child)
            for index, child in enumerate(children.get(id(node), ()))
            if child.end is not None
        ]
        if not finished:
            return path
        node = max(finished)[3]
        path.append(node)


def probe_of_qname(qname: str, vps_per_probe: int | None = None) -> int | None:
    """The probe id a measurement qname encodes, or None.

    Measurement labels are ``{prefix}-{vp_id}-{tick}`` (see
    :meth:`AtlasPlatform.measure`) and ``vp_id = probe_id *
    VPS_PER_PROBE + ordinal``, so the probe is recoverable from the
    trace alone.
    """
    label = qname.split(".", 1)[0]
    parts = label.split("-")
    if len(parts) != 3:
        return None
    try:
        vp_id = int(parts[1])
    except ValueError:
        return None
    if vps_per_probe is None:
        from ..atlas.platform import VPS_PER_PROBE  # late: avoids a cycle

        vps_per_probe = VPS_PER_PROBE
    return vp_id // vps_per_probe


@dataclass
class NsAttribution:
    """Virtual time one NS address cost the resolvers that queried it."""

    address: str
    exchanges: int = 0
    ok: int = 0
    failed: int = 0
    busy_ms: float = 0.0     # total wall (virtual) time spent on this NS
    wasted_ms: float = 0.0   # the share spent on non-ok outcomes

    def add(self, span: Span) -> None:
        duration = _duration_ms(span)
        self.exchanges += 1
        self.busy_ms += duration
        if span.attributes.get("outcome") == "ok":
            self.ok += 1
        else:
            self.failed += 1
            self.wasted_ms += duration


@dataclass
class ResolverAttribution:
    """Per-resolver resolution effort (NXNSAttack-style accounting)."""

    address: str
    resolutions: int = 0
    exchanges: int = 0
    busy_ms: float = 0.0
    worst_ms: float = 0.0
    servfails: int = 0

    def add(self, root: Span, exchanges: list[Span]) -> None:
        duration = _duration_ms(root)
        self.resolutions += 1
        self.exchanges += len(exchanges)
        self.busy_ms += duration
        self.worst_ms = max(self.worst_ms, duration)
        if root.attributes.get("rcode") not in ("NOERROR", None):
            self.servfails += 1


@dataclass(frozen=True)
class FaultWindow:
    """One ground-truth fault interval from the event log's notes."""

    fault: str
    target: str
    address: str
    start: float
    end: float

    @property
    def label(self) -> str:
        return f"{self.fault}@{self.target}"


def fault_windows_from_notes(notes: list[Note]) -> list[FaultWindow]:
    """Pair ``fault.start``/``fault.end`` notes into closed windows.

    The fault engine emits both transitions a priori, so pairing is by
    (fault, address) in timeline order; an unpaired start (log cut off
    mid-run) closes at +inf.
    """
    windows: list[FaultWindow] = []
    open_by_key: dict[tuple, list] = {}
    for note in sorted(notes, key=lambda n: (n.at if n.at is not None else 0.0)):
        data = note.data
        key = (data.get("fault"), data.get("address"), data.get("target"))
        if note.name == "fault.start":
            open_by_key.setdefault(key, []).append(note)
        elif note.name == "fault.end":
            starts = open_by_key.get(key)
            if starts:
                start_note = starts.pop(0)
                windows.append(FaultWindow(
                    fault=str(key[0]),
                    target=str(key[2] or ""),
                    address=str(key[1] or ""),
                    start=float(start_note.at or 0.0),
                    end=float(note.at or 0.0),
                ))
    for key, starts in sorted(open_by_key.items(), key=lambda kv: str(kv[0])):
        for start_note in starts:
            windows.append(FaultWindow(
                fault=str(key[0]),
                target=str(key[2] or ""),
                address=str(key[1] or ""),
                start=float(start_note.at or 0.0),
                end=float("inf"),
            ))
    windows.sort(key=lambda w: (w.start, w.end, w.fault, w.address))
    return windows


@dataclass
class WindowAttribution:
    """Exchange effort whose *start* fell inside one fault window."""

    window: FaultWindow
    exchanges: int = 0
    failed: int = 0
    busy_ms: float = 0.0


class TraceAnalytics:
    """Attribution and forensics over a set of finished query traces."""

    def __init__(self, roots: list[Span], fault_windows: list[FaultWindow]
                 | None = None):
        #: ``trace-<n>``: a trace's 1-based position in the input — the
        #: n-th trace record of a log, the n-th retained root of a tracer.
        self._ordinal = {id(root): n for n, root in enumerate(roots, 1)}
        self.roots = [r for r in roots if r.name == RESOLVE_SPAN]
        self.other_roots = [r for r in roots if r.name != RESOLVE_SPAN]
        self.fault_windows = list(fault_windows or [])

    @classmethod
    def from_log(cls, log: EventLog | str) -> "TraceAnalytics":
        if not isinstance(log, EventLog):
            log = EventLog.load(log)
        notes = [e for e in log.events if isinstance(e, Note)
                 and e.name in ("fault.start", "fault.end")]
        return cls(log.traces(), fault_windows_from_notes(notes))

    # -- attribution --------------------------------------------------------

    def _exchanges(self, root: Span) -> list[Span]:
        return [s for s in root.trace if s.name == EXCHANGE_SPAN]

    def per_ns(self) -> list[NsAttribution]:
        """Latency attribution per NS address, busiest first."""
        by_ns: dict[str, NsAttribution] = {}
        for root in self.roots:
            for span in self._exchanges(root):
                address = str(span.attributes.get("ns", "?"))
                by_ns.setdefault(address, NsAttribution(address)).add(span)
        return sorted(
            by_ns.values(), key=lambda a: (-a.busy_ms, a.address)
        )

    def per_resolver(self) -> list[ResolverAttribution]:
        """Resolution effort per recursive, busiest first."""
        by_resolver: dict[str, ResolverAttribution] = {}
        for root in self.roots:
            address = str(root.attributes.get("resolver", "?"))
            by_resolver.setdefault(
                address, ResolverAttribution(address)
            ).add(root, self._exchanges(root))
        return sorted(
            by_resolver.values(), key=lambda a: (-a.busy_ms, a.address)
        )

    def per_fault_window(self) -> list[WindowAttribution]:
        """Exchange effort attributed to each ground-truth fault window.

        An exchange lands in a window when its start falls inside
        [start, end) *and* it targeted the faulted address (or the
        fault has no address, e.g. a site withdrawal — then any NS
        counts).
        """
        out = [WindowAttribution(window=w) for w in self.fault_windows]
        if not out:
            return out
        for root in self.roots:
            for span in self._exchanges(root):
                address = str(span.attributes.get("ns", ""))
                for attribution in out:
                    window = attribution.window
                    if not window.start <= span.start < window.end:
                        continue
                    if window.address and address != window.address:
                        continue
                    attribution.exchanges += 1
                    attribution.busy_ms += _duration_ms(span)
                    if span.attributes.get("outcome") != "ok":
                        attribution.failed += 1
        return out

    # -- exemplars ----------------------------------------------------------

    def slowest(self, k: int = 5) -> list[Span]:
        """The top-K slowest finished resolutions, deterministically.

        Sort key: duration desc, then start, qname, then input order
        (the sort is stable) — equal-duration traces order the same way
        no matter how the input was sharded or which pass produced the
        log.
        """
        finished = [r for r in self.roots if r.end is not None]
        finished.sort(key=lambda r: (
            -(r.end - r.start),
            r.start,
            str(r.attributes.get("qname", "")),
        ))
        return finished[:max(0, k)]

    def ordinal(self, root: Span) -> int:
        """The ``n`` of ``trace-<n>`` for one of this analytics' traces."""
        return self._ordinal[id(root)]

    def find(self, selector: str) -> list[Span]:
        """Traces matching ``trace-N``, ``probe-N``, or a qname substring."""
        selector = selector.strip()
        if selector.startswith("trace-"):
            try:
                ordinal = int(selector[len("trace-"):])
            except ValueError:
                return []
            return [r for r in self.roots if self.ordinal(r) == ordinal]
        if selector.startswith("probe-"):
            try:
                probe_id = int(selector[len("probe-"):])
            except ValueError:
                return []
            return [
                r for r in self.roots
                if probe_of_qname(str(r.attributes.get("qname", "")))
                == probe_id
            ]
        return [
            r for r in self.roots
            if selector in str(r.attributes.get("qname", ""))
        ]


# -- rendering --------------------------------------------------------------


def describe_critical_path(root: Span) -> str:
    """One-line hop chain: ``resolve 350ms -> exchange[ns=..] 300ms ..``."""
    parts = []
    for span in critical_path(root):
        name = span.name.rsplit(".", 1)[-1]
        tag = ""
        if span.name == EXCHANGE_SPAN:
            tag = (
                f"[ns={span.attributes.get('ns', '?')}"
                f" {span.attributes.get('outcome', '?')}]"
            )
        duration = (
            f"{_duration_ms(span):.1f}ms" if span.end is not None else "open"
        )
        parts.append(f"{name}{tag} {duration}")
    return " -> ".join(parts)


def _fmt(value: float | None, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"


def _table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """The fixed-width text table every reader renders with."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def render_forensics(
    analytics: TraceAnalytics,
    selector: str | None = None,
    top: int = 3,
) -> str:
    """The forensics report ``repro-dns forensics`` prints.

    Without a selector: attribution tables plus the top-K slow-query
    exemplars with full causal chains.  With one: every matching trace
    in full.
    """
    sections: list[str] = []
    if selector:
        matches = analytics.find(selector)
        if not matches:
            return f"no traces match {selector!r}"
        sections.append(f"=== Forensics: {len(matches)} trace(s) match "
                        f"{selector!r} ===")
        for root in matches:
            sections.append(render_trace(root))
            sections.append(f"critical path: {describe_critical_path(root)}")
        return "\n\n".join(sections)

    total = len(analytics.roots)
    unfinished = sum(1 for r in analytics.roots if r.end is None)
    header = f"=== Forensics — {total} query traces ==="
    if unfinished:
        header += f"\n({unfinished} unfinished trace(s): durations partial)"
    sections.append(header)

    ns_rows = [
        [
            a.address, str(a.exchanges), str(a.ok), str(a.failed),
            f"{a.busy_ms:.1f}", f"{a.wasted_ms:.1f}",
            f"{100.0 * a.wasted_ms / a.busy_ms:.1f}%" if a.busy_ms else "-",
        ]
        for a in analytics.per_ns()
    ]
    if ns_rows:
        sections.append(_table(
            ["NS", "exchanges", "ok", "failed", "busy(ms)", "wasted(ms)",
             "wasted"],
            ns_rows,
            title="Per-NS latency attribution (exchange wait time)",
        ))

    resolver_rows = [
        [
            a.address, str(a.resolutions), str(a.exchanges),
            f"{a.busy_ms:.1f}", f"{a.worst_ms:.1f}", str(a.servfails),
        ]
        for a in analytics.per_resolver()[:10]
    ]
    if resolver_rows:
        sections.append(_table(
            ["resolver", "resolutions", "exchanges", "busy(ms)", "worst(ms)",
             "servfail"],
            resolver_rows,
            title="Busiest resolvers (top 10)",
        ))

    window_rows = [
        [
            w.window.label,
            f"{w.window.start:g}-"
            f"{w.window.end:g}s" if w.window.end != float("inf")
            else f"{w.window.start:g}s-",
            str(w.exchanges), str(w.failed), f"{w.busy_ms:.1f}",
        ]
        for w in analytics.per_fault_window()
    ]
    if window_rows:
        sections.append(_table(
            ["fault", "window", "exchanges", "failed", "busy(ms)"],
            window_rows,
            title="Exchange effort inside ground-truth fault windows",
        ))

    exemplars = analytics.slowest(top)
    if exemplars:
        parts = [f"Slowest {len(exemplars)} resolutions — full causal chains"]
        for root in exemplars:
            probe = probe_of_qname(str(root.attributes.get("qname", "")))
            who = f"probe-{probe}" if probe is not None else "?"
            parts.append(
                f"\n# {_duration_ms(root):.1f}ms trace-{analytics.ordinal(root)} ({who})"
            )
            parts.append(render_trace(root))
            parts.append(f"critical path: {describe_critical_path(root)}")
        sections.append("\n".join(parts))

    return "\n\n".join(sections)


__all__ = [
    "FaultWindow",
    "NsAttribution",
    "ResolverAttribution",
    "TraceAnalytics",
    "WindowAttribution",
    "critical_path",
    "describe_critical_path",
    "fault_windows_from_notes",
    "probe_of_qname",
    "render_forensics",
]
