"""Metrics-registry semantics: counters, gauges, histograms, exporters."""

import json
from pathlib import Path

import pytest

from repro.telemetry import (
    MetricError,
    MetricsRegistry,
    NullRegistry,
)

GOLDEN = Path(__file__).with_name("golden_metrics.prom")


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries_total", "queries seen")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("by_site", labelnames=("site",))
        counter.labels(site="FRA").inc(3)
        counter.labels(site="SYD").inc()
        assert counter.labels(site="FRA").value == 3
        assert counter.labels(site="SYD").value == 1
        assert counter.value == 4  # family total

    def test_same_labels_return_same_child(self):
        counter = MetricsRegistry().counter("c", labelnames=("a",))
        assert counter.labels(a="x") is counter.labels(a="x")

    def test_wrong_label_names_rejected(self):
        counter = MetricsRegistry().counter("c", labelnames=("site",))
        with pytest.raises(MetricError):
            counter.labels(wrong="x")
        with pytest.raises(MetricError):
            counter.labels()

    def test_unlabelled_use_of_labelled_family_rejected(self):
        counter = MetricsRegistry().counter("c", labelnames=("site",))
        with pytest.raises(MetricError):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("pending")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_can_go_negative(self):
        gauge = MetricsRegistry().gauge("delta")
        gauge.dec(4)
        assert gauge.value == -4


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        histogram = MetricsRegistry().histogram(
            "rtt", buckets=(10.0, 100.0, 1000.0)
        )
        for value in (5, 10, 50, 500, 5000):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 5
        assert child.sum == 5565
        # cumulative: <=10 -> 2, <=100 -> 3, <=1000 -> 4, +Inf -> 5
        cumulative = dict(child.cumulative())
        assert cumulative[10.0] == 2
        assert cumulative[100.0] == 3
        assert cumulative[1000.0] == 4
        assert cumulative[float("inf")] == 5

    def test_buckets_are_sorted_and_deduplicated(self):
        histogram = MetricsRegistry().histogram("h", buckets=(100.0, 1.0, 10.0))
        assert histogram.buckets == (1.0, 10.0, 100.0)
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h3", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", ("a",))
        second = registry.counter("c", "other help", ("a",))
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(MetricError):
            registry.gauge("metric")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("metric", labelnames=("b",))

    def test_samples_flatten_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("site",))
        counter.labels(site="FRA").inc(2)
        samples = registry.samples("c")
        assert len(samples) == 1
        assert samples[0].labels == {"site": "FRA"}
        assert samples[0].value == 2
        assert registry.samples("missing") == []


def build_reference_registry() -> MetricsRegistry:
    """A small deterministic registry for exporter tests."""
    registry = MetricsRegistry()
    queries = registry.counter(
        "authoritative_queries_total", "queries received", ("server",)
    )
    queries.labels(server="ns1-FRA").inc(7)
    queries.labels(server="ns2-SYD").inc(3)
    registry.gauge("sim_events_pending", "scheduler queue depth").set(2)
    rtt = registry.histogram(
        "measurement_rtt_ms", "answer RTT (ms)", ("site",),
        buckets=(50.0, 250.0),
    )
    for value in (12.0, 40.0, 180.0, 320.5):
        rtt.labels(site="FRA").observe(value)
    escape = registry.counter("escape_total", "label escaping", ("value",))
    escape.labels(value='quote " backslash \\ newline \n').inc()
    return registry


class TestExporters:
    def test_prometheus_text_matches_golden_file(self):
        text = build_reference_registry().to_prometheus_text()
        assert text == GOLDEN.read_text()

    def test_prometheus_histogram_lines(self):
        text = build_reference_registry().to_prometheus_text()
        assert 'measurement_rtt_ms_bucket{site="FRA",le="50"} 2' in text
        assert 'measurement_rtt_ms_bucket{site="FRA",le="+Inf"} 4' in text
        assert 'measurement_rtt_ms_sum{site="FRA"} 552.5' in text
        assert 'measurement_rtt_ms_count{site="FRA"} 4' in text

    def test_json_round_trips(self):
        data = json.loads(build_reference_registry().to_json())
        assert data["authoritative_queries_total"]["type"] == "counter"
        samples = data["authoritative_queries_total"]["samples"]
        assert {"labels": {"server": "ns1-FRA"}, "value": 7.0} in samples
        histogram = data["measurement_rtt_ms"]["samples"][0]
        assert histogram["count"] == 4
        assert histogram["buckets"]["+Inf"] == 4

    def test_empty_registry_exports_empty(self):
        registry = MetricsRegistry()
        assert registry.to_prometheus_text() == ""
        assert json.loads(registry.to_json()) == {}


class TestNullRegistry:
    def test_absorbs_everything_and_exports_nothing(self):
        registry = NullRegistry()
        assert registry.enabled is False
        registry.counter("c", labelnames=("a",)).labels(a="x").inc()
        registry.histogram("h").observe(1.0)
        assert registry.families() == []
        assert registry.to_events() == []
        assert registry.as_dict() == {}
