"""End-to-end telemetry for the simulator.

Five pillars, one bundle:

``registry``
    Labelled metrics (counters, gauges, histograms) with Prometheus-text
    and JSON exporters — the simulated system's numbers (queries per NS,
    RTT distributions, losses, cache hits).
``tracer``
    Query-lifecycle spans in virtual time — follow one cache-busting
    query from the vantage point through the recursive, the network,
    and into an authoritative.
``profiler``
    Wall-clock phase timers and counters for the simulator itself —
    every run's ``ExperimentResult.profile``; never written to a log.
``events``
    The export pipeline: an :class:`EventLogWriter` the tracer streams
    finished traces into and run drivers append snapshot events to.
``costs``
    The deterministic per-query :class:`CostLedger` (operation counts,
    not time).

A :class:`Telemetry` object carries all five.  Every instrumented
component takes ``telemetry=None`` and defaults to :data:`NULL_TELEMETRY`,
whose parts are no-ops.  ``telemetry.enabled`` gates *recording*, never
*dispatch*: switching it on adds spans and counters to the code that
runs and selects no other code, and a disabled run pays one attribute
check per operation::

    from repro.telemetry import Telemetry
    from repro.core.experiment import ExperimentConfig, TestbedExperiment

    telemetry = Telemetry.enabled_bundle()
    config = ExperimentConfig.for_combination("2C", num_probes=100)
    result = TestbedExperiment(config, telemetry=telemetry).run()
    print(telemetry.registry.to_prometheus_text())
    print(render_trace(telemetry.tracer.traces()[0]))
"""

from __future__ import annotations

from .clock import DEFAULT_CLOCK, Clock, MonotonicClock
from .events import (
    CostsEvent,
    EVENT_LOG_KIND,
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventLogError,
    EventLogFollower,
    EventLogWriter,
    MetricsSnapshot,
    NULL_EVENT_SINK,
    Note,
    NullEventSink,
    RawEvent,
    RunMeta,
    TraceEvent,
    ViewComparisonEvent,
    decode_trace,
    encode_trace,
    iter_raw_records,
    merge_shard_logs,
    parse_event,
    read_events,
)
from .analysis import (
    FaultWindow,
    TraceAnalytics,
    critical_path,
    fault_windows_from_notes,
    render_forensics,
)
from .costs import (
    COSTS_SCHEMA,
    CostLedger,
    NULL_COSTS,
    NullCostLedger,
)
from .monitor import CampaignMonitor, replay_monitor
from .profiling import NullProfiler, RunProfiler
from .slo import (
    SLO,
    Alert,
    DetectionScore,
    SLOError,
    burn_alerts,
    default_slos,
    evaluate_slos,
    render_slo_report,
    score_alerts,
)
from .registry import (
    DEFAULT_RTT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    Sample,
    prometheus_text,
)
from .sketch import EXPORTED_QUANTILES, P2Quantile, quantile_from_buckets
from .tracing import NULL_SPAN, NullTracer, Span, SpanEvent, Tracer, render_trace


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
    "Alert",
    "COSTS_SCHEMA",
    "CampaignMonitor",
    "Clock",
    "CostLedger",
    "CostsEvent",
    "Counter",
    "DEFAULT_CLOCK",
    "DEFAULT_RTT_BUCKETS_MS",
    "DetectionScore",
    "EVENT_LOG_KIND",
    "EVENT_SCHEMA_VERSION",
    "EXPORTED_QUANTILES",
    "EventLog",
    "EventLogError",
    "EventLogFollower",
    "EventLogWriter",
    "FaultWindow",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MonotonicClock",
    "NULL_COSTS",
    "NULL_EVENT_SINK",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "Note",
    "NullCostLedger",
    "NullEventSink",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "P2Quantile",
    "RawEvent",
    "RunMeta",
    "RunProfiler",
    "SLO",
    "SLOError",
    "Sample",
    "Span",
    "SpanEvent",
    "Telemetry",
    "TraceAnalytics",
    "TraceEvent",
    "Tracer",
    "ViewComparisonEvent",
    "burn_alerts",
    "critical_path",
    "decode_trace",
    "default_slos",
    "encode_trace",
    "evaluate_slos",
    "fault_windows_from_notes",
    "iter_raw_records",
    "merge_shard_logs",
    "parse_event",
    "prometheus_text",
    "quantile_from_buckets",
    "read_events",
    "render_forensics",
    "render_slo_report",
    "render_trace",
    "replay_monitor",
    "score_alerts",
]
