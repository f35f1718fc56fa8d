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
whose parts are the pillars' no-op twins, kept in ``bundle`` beside it:
a disabled run loads no pillar module.  ``telemetry.enabled`` gates
*recording*, never *dispatch*: switching it on adds spans and counters
to the code that runs and selects no other code, and a disabled run
pays one attribute check per operation::

    from repro.telemetry import Telemetry
    from repro.core.experiment import ExperimentConfig, TestbedExperiment

    telemetry = Telemetry.enabled_bundle()
    config = ExperimentConfig.for_combination("2C", num_probes=100)
    result = TestbedExperiment(config, telemetry=telemetry).run()
    print(telemetry.registry.to_prometheus_text())
    print(render_trace(telemetry.tracer.traces()[0]))
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "analysis": "FaultWindow TraceAnalytics critical_path fault_windows_from_notes "
    "render_forensics",
    "bundle": "NULL_COSTS NULL_EVENT_SINK NULL_SPAN NULL_TELEMETRY NullCostLedger "
    "NullEventSink NullProfiler NullRegistry NullTracer Telemetry",
    "clock": "DEFAULT_CLOCK Clock MonotonicClock",
    "costs": "COSTS_SCHEMA CostLedger",
    "events": "EVENT_LOG_KIND EVENT_SCHEMA_VERSION CostsEvent "
    "EventLog EventLogError EventLogFollower EventLogWriter MetricsSnapshot Note "
    "RawEvent RunMeta TraceEvent ViewComparisonEvent decode_trace "
    "encode_trace iter_raw_records merge_shard_logs parse_event read_events",
    "monitor": "CampaignMonitor replay_monitor",
    "profiling": "RunProfiler",
    "registry": "DEFAULT_RTT_BUCKETS_MS Counter Gauge Histogram MetricError "
    "MetricsRegistry Sample prometheus_text",
    "sketch": "EXPORTED_QUANTILES P2Quantile quantile_from_buckets",
    "slo": "SLO Alert DetectionScore SLOError burn_alerts default_slos "
    "evaluate_slos render_slo_report score_alerts",
    "tracing": "Span SpanEvent Tracer render_trace",
})
