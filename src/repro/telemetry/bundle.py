"""The :class:`Telemetry` bundle every instrumented component takes, and
the null twins of its pillars.

The twins live here, with the bundle that defaults to them: the
registry's, the tracer's (and ``NULL_SPAN``), the profiler's, the cost
ledger's and the event sink.  So code that runs with telemetry off
(``NULL_TELEMETRY``: every plain campaign, the passive generator,
``repro-dns serve``) loads none of the pillar modules;
:meth:`Telemetry.enabled_bundle` imports them when it builds a live one.
"""

from __future__ import annotations


class _NullChild:
    """Absorbs what a guarded call site records: counts, observations."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labelvalues):
        return self


_NULL_CHILD = _NullChild()


class NullRegistry:
    """The disabled :class:`MetricsRegistry`, all no-ops.

    The default registry everywhere: components instrument themselves
    against this and pay one ``enabled`` check when telemetry is off.
    It keeps what a site guarded on ``telemetry.enabled`` reaches when
    tracing is on and metrics are off, plus the exports.
    """

    enabled = False

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullChild:
        return _NULL_CHILD

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=()
    ) -> _NullChild:
        return _NULL_CHILD

    def families(self) -> list:
        return []

    def to_events(self, at: float | None = None) -> list:
        return []

    def as_dict(self) -> dict:
        return {}


class _NullSpan:
    """Absorbs what a guarded call site does to a span: set, event."""

    __slots__ = ()
    name = ""
    trace: list = []
    events: list = []
    attributes: dict = {}
    start = 0.0
    end = None
    finished = False

    def set(self, **attributes) -> "_NullSpan":
        return self

    def event(self, name: str, at: float, **attributes) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled :class:`Tracer`: what call sites reach with tracing
    off, all no-ops."""

    enabled = False
    roots: list = []
    dropped_traces = 0
    dropped_unstreamed = 0
    active = None
    sink = None

    def start_span(self, name: str, at: float, parent=None, **attributes) -> _NullSpan:
        return NULL_SPAN

    def finish_span(self, span, at: float) -> None:
        pass

    def activate(self, span) -> None:
        pass

    def deactivate(self, span) -> None:
        pass


class _NullPhase:
    """The null profiler's and null ledger's phase: a no-op context."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


_NULL_PHASE = _NullPhase()


class NullProfiler:
    """The disabled :class:`RunProfiler`: phases and counts, all no-ops."""

    enabled = False
    phases: dict = {}
    counters: dict = {}
    values: dict = {}
    total_seconds = 0.0

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def count(self, name: str, amount: float = 1.0) -> None:
        pass


class NullCostLedger:
    """The disabled :class:`CostLedger`: ``enabled=False``, and only what
    call sites reach without checking it (phases, the event export)."""

    enabled = False
    phases: dict = {}
    queries = 0

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def to_events(self) -> list:
        return []


#: shared zero-cost default — ``NULL_TELEMETRY.costs``.
NULL_COSTS = NullCostLedger()


class NullEventSink:
    """The absent event log: every writer checks ``enabled`` first."""

    enabled = False
    emitted = 0
    dropped = 0
    closed = False
    path = None


NULL_EVENT_SINK = NullEventSink()


class Telemetry:
    """One run's registry + tracer + profiler, passed through every layer.

    ``events`` (the export pipeline, see :meth:`finalize_events`) and
    ``costs`` (the cost ledger) are optional and default to their null
    twins.
    """

    __slots__ = ("registry", "tracer", "profiler", "events", "costs", "enabled")

    def __init__(self, registry, tracer, profiler, events=None, costs=None):
        self.registry = registry
        self.tracer = tracer
        self.profiler = profiler
        self.events = events if events is not None else NULL_EVENT_SINK
        self.costs = costs if costs is not None else NULL_COSTS
        #: cached flag instrumented sites guard their *recording* on (any
        #: simulated-system pillar live?).  Excludes the cost ledger, which
        #: measures the simulator: its sites guard on
        #: ``telemetry.costs.enabled`` separately.
        self.enabled = bool(registry.enabled or tracer.enabled)

    @classmethod
    def enabled_bundle(
        cls,
        metrics: bool = True,
        tracing: bool = True,
        profiling: bool = True,
        max_traces: int = 100_000,
        event_log=None,
        costs: bool = False,
    ) -> "Telemetry":
        """A live bundle; switch off individual pillars as needed.

        ``event_log`` is a path (or an open :class:`EventLogWriter`):
        when given, every finished trace streams there as the run
        progresses, and :meth:`finalize_events` appends the closing
        metrics snapshot (and the ledger, with ``costs=True``).

        ``costs=True`` attaches a deterministic :class:`CostLedger`; it
        does not flip ``enabled``.
        """
        from .costs import CostLedger
        from .events import EventLogWriter
        from .profiling import RunProfiler
        from .registry import MetricsRegistry
        from .tracing import Tracer

        if event_log is None:
            sink = NULL_EVENT_SINK
        elif isinstance(event_log, (EventLogWriter, NullEventSink)):
            sink = event_log
        else:
            sink = EventLogWriter(event_log)
        tracer = (
            Tracer(
                max_traces=max_traces,
                sink=sink if sink.enabled else None,
            )
            if tracing
            else NullTracer()
        )
        return cls(
            registry=MetricsRegistry() if metrics else NullRegistry(),
            tracer=tracer,
            profiler=RunProfiler() if profiling else NullProfiler(),
            events=sink,
            costs=CostLedger() if costs else None,
        )

    @classmethod
    def disabled_bundle(cls) -> "Telemetry":
        return cls(NullRegistry(), NullTracer(), NullProfiler())

    def surface_drop_counters(self) -> None:
        """Mirror telemetry self-accounting into the registry.

        Un-streamed trace drops (``Tracer.dropped_unstreamed``) and
        post-close event drops are real data loss; surfacing them as
        gauges puts them in ``repro-dns metrics`` output and every
        metrics snapshot.  Zero values are skipped so clean runs keep
        their exact metric set (golden exports, merged-log identity).
        """
        registry = self.registry
        if not registry.enabled:
            return
        dropped_traces = getattr(self.tracer, "dropped_unstreamed", 0)
        if dropped_traces:
            registry.gauge(
                "telemetry_dropped_traces",
                "finished traces discarded with no sink to stream to "
                "(raise max_traces or attach an event log)",
            ).set(float(dropped_traces))
        dropped_events = getattr(self.events, "dropped", 0)
        if dropped_events:
            registry.gauge(
                "telemetry_dropped_events",
                "events emitted after the event log was closed",
            ).set(float(dropped_events))

    def finalize_events(self, at: float | None = None, close: bool = False) -> None:
        """Append the metrics snapshot and the cost ledger, then flush.

        Safe to call with no event sink attached (no-op), and more than
        once (each call appends fresh snapshots).  ``close=True`` also
        closes the underlying file; later emits are counted as drops.
        """
        sink = self.events
        if not sink.enabled:
            return
        self.surface_drop_counters()
        for event in self.registry.to_events(at=at):
            sink.emit(event)
        for event in self.costs.to_events():
            sink.emit(event)
        sink.flush()
        if close:
            sink.close()

    def __repr__(self) -> str:
        return f"Telemetry(enabled={self.enabled})"


#: the shared zero-cost default — every component's fallback.
NULL_TELEMETRY = Telemetry.disabled_bundle()


__all__ = [
    "NULL_COSTS", "NULL_EVENT_SINK", "NULL_SPAN", "NULL_TELEMETRY", "NullCostLedger",
    "NullEventSink", "NullProfiler", "NullRegistry", "NullTracer", "Telemetry",
]
