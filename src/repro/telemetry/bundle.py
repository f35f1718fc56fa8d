"""The :class:`Telemetry` bundle every instrumented component takes.

The null event sink lives here, with the bundle that defaults to it, so
that code running without an event log (``NULL_TELEMETRY``, ``repro-dns
serve``) never loads :mod:`repro.telemetry.events`.
"""

from __future__ import annotations

from .costs import NULL_COSTS, CostLedger
from .profiling import NullProfiler, RunProfiler
from .registry import MetricsRegistry, NullRegistry
from .tracing import NullTracer, Tracer


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
        from .events import EventLogWriter

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


__all__ = ["NULL_EVENT_SINK", "NULL_TELEMETRY", "NullEventSink", "Telemetry"]
