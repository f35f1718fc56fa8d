"""Acceptance: telemetry on a seeded testbed run matches the run itself.

The ISSUE's acceptance criteria, as tests:

* the Prometheus dump's per-NS query counters match the
  :class:`MeasurementRun` observations *exactly*;
* at least one complete resolver → network → authoritative trace exists
  for a cache-miss query;
* the trace-based server-side view plugs into ``compare_views``;
* with telemetry disabled, results are bit-identical to an
  uninstrumented run (zero behavioural cost).
"""

import gc
from collections import Counter

import pytest

from repro.analysis import (
    client_side_shares,
    compare_views,
    server_side_shares_from_trace,
)
from repro.core.experiment import run_combination
from repro.telemetry import (
    NULL_TELEMETRY,
    EventLogWriter,
    Telemetry,
    parse_event,
    render_trace,
)

RUN_KWARGS = dict(num_probes=30, duration_s=600.0, seed=20170412)


@pytest.fixture(scope="module")
def instrumented():
    telemetry = Telemetry.enabled_bundle()
    result = run_combination("2C", telemetry=telemetry, **RUN_KWARGS)
    return telemetry, result


class TestMetricsMatchRun:
    def test_per_ns_query_counts_match_observations_exactly(self, instrumented):
        telemetry, result = instrumented
        expected = Counter(
            obs.authoritative or "none" for obs in result.observations
        )
        family = telemetry.registry.get("measurement_queries_total")
        actual = Counter()
        for labelvalues, child in family.children():
            labels = dict(zip(family.labelnames, labelvalues))
            actual[labels["ns"]] += int(child.value)
        assert actual == expected

    def test_authoritative_counters_match_server_side_counts(self, instrumented):
        telemetry, result = instrumented
        family = telemetry.registry.get("authoritative_queries_total")
        by_server = {
            dict(zip(family.labelnames, labelvalues))["server"]: int(child.value)
            for labelvalues, child in family.children()
        }
        expected = {
            server: count
            for server, count in result.server_query_counts.items()
            if count  # servers that saw no query have no counter child
        }
        assert by_server == expected

    def test_rtt_histogram_covers_all_answered_queries(self, instrumented):
        telemetry, result = instrumented
        answered = sum(
            1 for obs in result.observations if obs.rtt_ms is not None
        )
        family = telemetry.registry.get("measurement_rtt_ms")
        total = sum(child.count for _, child in family.children())
        assert total == answered > 0

    def test_prometheus_dump_is_scrapeable(self, instrumented):
        telemetry, _ = instrumented
        text = telemetry.registry.to_prometheus_text()
        assert "# TYPE measurement_queries_total counter" in text
        assert "# TYPE measurement_rtt_ms histogram" in text
        assert 'le="+Inf"' in text


class TestTraceCompleteness:
    def test_cache_miss_trace_strings_all_layers_together(self, instrumented):
        telemetry, _ = instrumented
        complete = [
            root for root in telemetry.tracer.traces()
            if root.name == "resolver.resolve"
            and root.attributes.get("cache") == "miss"
            and root.find("resolver.exchange") is not None
            and root.find("net.round_trip") is not None
            and root.find("auth.query") is not None
        ]
        assert complete, "no complete cache-miss trace captured"
        root = complete[0]
        assert all(span.finished for span in root.trace)
        auth = root.find("auth.query")
        assert auth.trace is root.trace
        assert auth.attributes["server"].startswith("ns")
        rendered = render_trace(root)
        for layer in ("resolver.resolve", "resolver.exchange",
                      "net.round_trip", "auth.query"):
            assert layer in rendered

    def test_spans_are_ordered_in_virtual_time(self, instrumented):
        telemetry, _ = instrumented
        for root in telemetry.tracer.traces()[:50]:
            for span in root.trace:
                assert span.finished
                assert span.end >= span.start
                if span.parent is not None:
                    assert span.start >= span.parent.start


class TestAnalysisAdapter:
    def test_trace_view_feeds_compare_views(self, instrumented):
        telemetry, result = instrumented
        from_trace = server_side_shares_from_trace(telemetry.tracer)
        client = client_side_shares(result.observations)
        sink = EventLogWriter()
        comparison = compare_views(result.observations, telemetry.tracer, sink=sink)
        assert from_trace, "trace vantage saw no recursives"
        assert comparison.recursives_compared == len(set(client) & set(from_trace))
        assert comparison.views_equivalent
        (event,) = [parse_event(line) for line in sink.lines]
        assert event.comparison["vantage"] == "tracer"
        assert event.comparison["recursives_compared"] == comparison.recursives_compared

    def test_compare_views_requires_some_server_vantage(self, instrumented):
        # The tracer is the only server-side vantage, and it has no default.
        _, result = instrumented
        with pytest.raises(TypeError):
            compare_views(result.observations)


class TestDisabledTelemetryIsFree:
    def test_disabled_run_is_identical_to_uninstrumented_run(self):
        plain = run_combination("2C", **RUN_KWARGS)
        nulled = run_combination("2C", telemetry=NULL_TELEMETRY, **RUN_KWARGS)
        assert [
            (o.probe_id, o.authoritative, o.site, o.rtt_ms)
            for o in plain.observations
        ] == [
            (o.probe_id, o.authoritative, o.site, o.rtt_ms)
            for o in nulled.observations
        ]
        assert plain.server_query_counts == nulled.server_query_counts

    def test_instrumented_run_observes_same_system(self, instrumented):
        # Telemetry must never perturb the simulation: the seeded run
        # with tracing on sees the same measurements as one without.
        _, result = instrumented
        plain = run_combination("2C", **RUN_KWARGS)
        assert [
            (o.probe_id, o.authoritative, o.site, o.rtt_ms)
            for o in plain.observations
        ] == [
            (o.probe_id, o.authoritative, o.site, o.rtt_ms)
            for o in result.observations
        ]

    def test_profile_sidecar_always_present(self):
        result = run_combination("2C", **RUN_KWARGS)
        measure = result.profile["phases"]["experiment.measure"]
        assert measure["calls"] == 1
        assert result.profile["counters"]["experiment.runs"] == 1
        # Collector work inside the phase, per generation.
        assert len(measure["gc"]) == len(gc.get_stats())
        for generation in measure["gc"]:
            assert set(generation) == {"collections", "collected"}
            assert all(type(n) is int and n >= 0 for n in generation.values())
