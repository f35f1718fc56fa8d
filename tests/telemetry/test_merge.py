"""Tests for the mergeable reducers behind the sharded engine.

Registry merge, the in-memory event sink, and trace-record
normalization: every reducer must be insensitive to how the workload
was partitioned.
"""

import pytest

from repro.telemetry import (
    EventLogWriter,
    MetricError,
    MetricsRegistry,
    Note,
    Tracer,
    normalize_trace_records,
)


def _observe(registry: MetricsRegistry, values, site="FRA"):
    histogram = registry.histogram(
        "rtt_ms", "rtt", ("site",), buckets=(10.0, 100.0, 1000.0)
    )
    counter = registry.counter("queries_total", "queries", ("site",))
    for value in values:
        histogram.labels(site=site).observe(value)
        counter.labels(site=site).inc()
    registry.gauge("inflight", "open queries").set(float(len(values)))


class TestRegistryMerge:
    def test_merge_equals_unsharded(self):
        values = [3.0, 42.0, 420.0, 7.5, 88.0, 999.0]
        whole = MetricsRegistry()
        _observe(whole, values)
        left, right = MetricsRegistry(), MetricsRegistry()
        _observe(left, values[:2])
        _observe(right, values[2:])
        # gauges add on merge; mimic the shard split for the whole run
        whole.gauge("inflight", "open queries").set(float(len(values)))
        left.gauge("inflight", "open queries").set(2.0)
        right.gauge("inflight", "open queries").set(4.0)
        merged = MetricsRegistry().merge(left).merge(right)
        assert merged.to_json() == whole.to_json()

    def test_merge_commutes(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        _observe(left, [1.0, 50.0])
        _observe(right, [200.0], site="SYD")
        ab = MetricsRegistry().merge(left).merge(right)
        ba = MetricsRegistry().merge(right).merge(left)
        assert ab.to_json() == ba.to_json()

    def test_histogram_sum_is_order_independent(self):
        # Float addition is not associative; the exact-partials
        # accumulator makes the exported sum independent of both
        # observation order and merge order.
        values = [0.1, 1e16, 0.1, -1e16, 0.3, 7.7] * 9
        forward, backward = MetricsRegistry(), MetricsRegistry()
        _observe(forward, values)
        _observe(backward, list(reversed(values)))
        assert (
            forward.get("rtt_ms").labels(site="FRA").sum
            == backward.get("rtt_ms").labels(site="FRA").sum
        )

    def test_histogram_minmax_envelope(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        _observe(left, [5.0, 80.0])
        _observe(right, [2.0, 700.0])
        merged = MetricsRegistry().merge(left).merge(right)
        child = merged.get("rtt_ms").labels(site="FRA")
        assert child.min == 2.0
        assert child.max == 700.0
        assert child.count == 4

    def test_bucket_mismatch_raises(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", "", buckets=(1.0, 2.0)).observe(1.0)
        right.histogram("h", "", buckets=(1.0, 3.0)).observe(1.0)
        with pytest.raises(MetricError):
            left.merge(right)

    def test_type_mismatch_raises(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("m", "").inc()
        right.gauge("m", "").set(1.0)
        with pytest.raises(MetricError):
            left.merge(right)

    def test_merge_creates_missing_families(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        right.counter("only_right", "").inc(3.0)
        left.merge(right)
        assert left.counter("only_right", "").value == 3.0


class TestRecordingEventSink:
    def test_records_are_shard_tagged(self):
        sink = EventLogWriter(shard=2)
        assert sink.emit(Note(name="x", at=1.0))
        assert sink.records[0]["shard"] == 2
        assert sink.records[0]["name"] == "x"

    def test_untagged_without_shard(self):
        sink = EventLogWriter()
        sink.emit(Note(name="x"))
        assert "shard" not in sink.records[0]

    def test_tracer_streams_into_sink(self):
        sink = EventLogWriter(shard=0)
        tracer = Tracer(max_traces=0, sink=sink)
        span = tracer.start_span("root", at=1.0)
        tracer.finish_span(span, at=2.0)
        assert sink.of_kind("trace")
        assert tracer.roots == []  # records are the transport

    def test_records_survive_later_mutation(self):
        sink = EventLogWriter()
        data = {"key": "before"}
        sink.emit(Note(name="n", data=data))
        data["key"] = "after"
        assert sink.records[0]["data"]["key"] == "before"


def _trace_records(order, shard):
    """Finished traces with tracer-private ids in emission order."""
    sink = EventLogWriter(shard=shard)
    tracer = Tracer(sink=sink)
    for start, name in order:
        root = tracer.start_span(name, at=start)
        child = tracer.start_span(f"{name}.child", at=start + 0.1)
        tracer.finish_span(child, at=start + 0.2)
        tracer.finish_span(root, at=start + 0.5)
    return sink.records


class TestNormalizeTraceRecords:
    def test_partition_invariant(self):
        work = [(0.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d")]
        serial = _trace_records(work, shard=0)
        shard_even = _trace_records(work[::2], shard=0)
        shard_odd = _trace_records(work[1::2], shard=1)
        assert normalize_trace_records(serial) == normalize_trace_records(
            shard_even + shard_odd
        )

    def test_ids_renumbered_in_start_order(self):
        records = _trace_records([(5.0, "late"), (1.0, "early")], shard=3)
        normalized = normalize_trace_records(records)
        assert [r["root"]["name"] for r in normalized] == ["early", "late"]
        assert [r["root"]["trace_id"] for r in normalized] == [1, 2]
        span_ids = [
            r["root"]["span_id"] for r in normalized
        ] + [r["root"]["children"][0]["span_id"] for r in normalized]
        assert sorted(span_ids) == [1, 2, 3, 4]
        # depth-first: a root precedes its child, children inherit
        # their root's trace id
        for record in normalized:
            root = record["root"]
            child = root["children"][0]
            assert child["trace_id"] == root["trace_id"]
            assert child["span_id"] == root["span_id"] + 1

    def test_shard_tags_do_not_leak(self):
        records = _trace_records([(0.0, "a")], shard=7)
        normalized = normalize_trace_records(records)
        assert all("shard" not in record for record in normalized)
