"""Tests for the mergeable reducers behind the sharded engine.

Registry merge, the in-memory event sink, and the trace-line merge:
every reducer must be insensitive to how the workload was partitioned.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    EventLogWriter,
    MetricError,
    MetricsRegistry,
    Note,
    TraceAnalytics,
    TraceEvent,
    Tracer,
    decode_trace,
    encode_trace,
    merge_shard_logs,
    parse_event,
    read_events,
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
    def test_untagged_without_shard(self):
        # The writer stamps nothing on a record: a heartbeat note names
        # its shard in its own data, and nothing else needs one.
        sink = EventLogWriter()
        sink.emit(Note(name="x", at=1.0))
        assert list(sink.iter_records()) == [
            {"kind": "note", "at": 1.0, "name": "x", "data": {}}
        ]

    def test_tracer_streams_into_sink(self):
        sink = EventLogWriter()
        tracer = Tracer(max_traces=0, sink=sink)
        span = tracer.start_span("root", at=1.0)
        tracer.finish_span(span, at=2.0)
        assert [r for r in sink.iter_records() if r["kind"] == "trace"]
        assert tracer.roots == []  # lines are the transport

    def test_records_survive_later_mutation(self):
        sink = EventLogWriter()
        data = {"key": "before"}
        sink.emit(Note(name="n", data=data))
        data["key"] = "after"
        assert next(sink.iter_records())["data"]["key"] == "before"

    def test_lines_are_what_a_file_would_hold(self, tmp_path):
        in_memory = EventLogWriter()
        with EventLogWriter(tmp_path / "seg.jsonl") as on_disk:
            for sink in (in_memory, on_disk):
                sink.emit(Note(name="n", data={"k": (1, 2)}, at=3.0))
                sink.emit_line('{"kind": "note", "verbatim": true}')
        assert all(isinstance(line, str) for line in in_memory.lines)
        assert (
            (tmp_path / "seg.jsonl").read_text().splitlines()[1:]
            == in_memory.lines
        )
        assert in_memory.emitted == on_disk.emitted == 2


def _emit_traces(order, sink):
    """Stream one two-span trace per ``(start, name)`` into ``sink``."""
    tracer = Tracer(max_traces=0, sink=sink)
    for start, name in order:
        root = tracer.start_span(name, at=start, qname=f"{name}.example.")
        child = tracer.start_span(f"{name}.child", at=start + 0.1)
        child.event("sent", at=start + 0.1, bytes=40)
        tracer.finish_span(child, at=start + 0.2)
        tracer.finish_span(root, at=start + 0.5)


def _shard_lines(order):
    sink = EventLogWriter()
    _emit_traces(order, sink)
    sink.emit(Note(name="measure.end", at=99.0))
    return sink.lines


class TestNormalizeTraceRecords:
    """The merge that replaced the strip / renumber pass: a plain sort."""

    def test_partition_invariant(self):
        work = [(0.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d")]
        serial, _ = merge_shard_logs([_shard_lines(work)])
        sharded, others = merge_shard_logs(
            [_shard_lines(work[1::2]), _shard_lines(work[::2])]
        )
        assert sharded == serial
        assert len(serial) == 4
        # Everything that is not a trace comes back parsed, per shard.
        assert [[r["name"] for r in records] for records in others] == [
            ["measure.end"], ["measure.end"],
        ]

    def test_ids_renumbered_in_start_order(self):
        # ``trace-<n>`` is a trace's position in the log, and the merged
        # log is in (root start, line text) order whatever the emit order.
        merged, _ = merge_shard_logs(
            [_shard_lines([(5.0, "late"), (1.0, "early")]),
             _shard_lines([(1.0, "early-too")])]
        )
        roots = [parse_event(line).root for line in merged]
        assert [root.name for root in roots] == ["early", "early-too", "late"]
        analytics = TraceAnalytics(roots)
        assert [analytics.ordinal(root) for root in roots] == [1, 2, 3]
        # Lines pass through verbatim: same str objects' text, no rewrite.
        assert sorted(merged) == sorted(
            line
            for line in _shard_lines([(5.0, "late"), (1.0, "early")])
            + _shard_lines([(1.0, "early-too")])
            if '"trace"' in line
        )

    def test_shard_tags_do_not_leak(self):
        merged, _ = merge_shard_logs([_shard_lines([(0.0, "a")])])
        (record,) = map(json.loads, merged)
        assert sorted(record) == ["kind", "spans"]
        # A span row is [parent, name, t0, t1, attrs, events]: nothing
        # names the tracer or the shard that wrote it.
        assert record["spans"] == [
            [-1, "a", 0.0, 0.5, {"qname": "a.example."}, []],
            [0, "a.child", 0.1, 0.2, {}, [[0.1, "sent", {"bytes": 40}]]],
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        starts=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 120.0]),
            min_size=0, max_size=12,
        ),
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        spill=st.booleans(),
    )
    def test_any_partition_merges_to_identical_bytes(
        self, tmp_path_factory, starts, shards, seed, spill
    ):
        # Any partition of a trace set into 1-6 shards, in any shard
        # order, spilled or in memory, merges to the same bytes as the
        # unpartitioned set.  Equal starts (and fully equal traces) are
        # in the draw on purpose: the line text breaks those ties.
        work = [(start, f"t{index % 3}") for index, start in enumerate(starts)]
        reference, _ = merge_shard_logs([_shard_lines(work)])
        rng = random.Random(seed)
        buckets = [[] for _ in range(shards)]
        for item in work:
            rng.choice(buckets).append(item)
        rng.shuffle(buckets)
        sources = []
        directory = tmp_path_factory.mktemp("segments") if spill else None
        for index, bucket in enumerate(buckets):
            if directory is None:
                sources.append(_shard_lines(bucket))
                continue
            path = directory / f"shard-{index:04d}.events.jsonl"
            with EventLogWriter(path, max_buffered=2) as sink:
                _emit_traces(bucket, sink)
            sources.append(str(path))
        merged, _ = merge_shard_logs(sources)
        assert "\n".join(merged).encode() == "\n".join(reference).encode()


def _lifecycle_trace(tracer):
    """A retry plus an NS fetch: two exchanges under the root, the second
    with a nested child resolution before its own round trip."""
    root = tracer.start_span(
        "resolver.resolve", at=10.0, parent=None,
        resolver="192.0.2.53", qname="m-7-3.example.nl.", qtype="TXT",
    )
    first = tracer.start_span(
        "resolver.exchange", at=10.0, parent=root, ns="198.51.100.1", attempt=1
    )
    lost = tracer.start_span(
        "net.round_trip", at=10.0, parent=first,
        client="192.0.2.53", dst="198.51.100.1",
    )
    lost.set(lost=True, fault="ns_outage")
    lost.event("loss", at=10.0, reason="ns_outage")
    tracer.finish_span(lost, at=10.0)
    first.set(outcome="timeout")
    tracer.finish_span(first, at=10.8)
    second = tracer.start_span(
        "resolver.exchange", at=10.8, parent=root, ns="198.51.100.2", attempt=2
    )
    fetch = tracer.start_span(
        "resolver.resolve", at=10.8, parent=second,
        resolver="192.0.2.53", qname="ns2.example.nl.", qtype="A",
    )
    fetch_exchange = tracer.start_span(
        "resolver.exchange", at=10.8, parent=fetch, ns="198.51.100.3", attempt=1
    )
    fetch_trip = tracer.start_span(
        "net.round_trip", at=10.8, parent=fetch_exchange,
        client="192.0.2.53", dst="198.51.100.3",
    )
    fetch_auth = tracer.start_span(
        "auth.query", at=10.82, parent=fetch_trip,
        server="ns3-FRA", client="192.0.2.53",
    )
    tracer.finish_span(fetch_auth, at=10.82)
    tracer.finish_span(fetch_trip, at=10.84)
    fetch_exchange.set(outcome="ok")
    tracer.finish_span(fetch_exchange, at=10.84)
    fetch.set(rcode="NOERROR")
    tracer.finish_span(fetch, at=10.84)
    trip = tracer.start_span(
        "net.round_trip", at=10.84, parent=second,
        client="192.0.2.53", dst="198.51.100.2",
    )
    trip.event("anycast.catchment", at=10.84, site="GRU", rtt_ms=212.5)
    auth = tracer.start_span(
        "auth.query", at=10.94625, parent=trip,
        server="ns2-GRU", client="192.0.2.53",
    )
    auth.set(rcode="NOERROR", answers=1)
    tracer.finish_span(auth, at=10.94625)
    trip.set(answered=True)
    tracer.finish_span(trip, at=11.0525)
    second.set(outcome="ok")
    tracer.finish_span(second, at=11.0525)
    root.set(rcode="NOERROR", site="GRU")
    tracer.finish_span(root, at=11.0525)
    return root


#: what the span-tree code of the commit before schema v2 printed for
#: ``_lifecycle_trace`` — captured there, held here.
LIFECYCLE_RENDERED = """\
resolver.resolve [+0.0ms 1052.5ms] resolver=192.0.2.53 qname=m-7-3.example.nl. qtype=TXT rcode=NOERROR site=GRU
├─ resolver.exchange [+0.0ms 800.0ms] ns=198.51.100.1 attempt=1 outcome=timeout
│  └─ net.round_trip [+0.0ms 0.0ms] client=192.0.2.53 dst=198.51.100.1 lost=True fault=ns_outage
│     └─ · loss [+0.0ms] reason=ns_outage
└─ resolver.exchange [+800.0ms 252.5ms] ns=198.51.100.2 attempt=2 outcome=ok
   ├─ resolver.resolve [+800.0ms 40.0ms] resolver=192.0.2.53 qname=ns2.example.nl. qtype=A rcode=NOERROR
   │  └─ resolver.exchange [+800.0ms 40.0ms] ns=198.51.100.3 attempt=1 outcome=ok
   │     └─ net.round_trip [+800.0ms 40.0ms] client=192.0.2.53 dst=198.51.100.3
   │        └─ auth.query [+820.0ms 0.0ms] server=ns3-FRA client=192.0.2.53
   └─ net.round_trip [+840.0ms 212.5ms] client=192.0.2.53 dst=198.51.100.2 answered=True
      ├─ · anycast.catchment [+840.0ms] site=GRU rtt_ms=212.5
      └─ auth.query [+946.2ms 0.0ms] server=ns2-GRU client=192.0.2.53 rcode=NOERROR answers=1"""
LIFECYCLE_CRITICAL_PATH = (
    "resolve 1052.5ms -> exchange[ns=198.51.100.2 ok] 252.5ms "
    "-> round_trip 212.5ms -> query 0.0ms"
)


class TestTraceLineRoundTrip:
    """``Trace → line → Trace``: one encode / decode pair owns the layout."""

    def _round_trip(self, root):
        line = json.dumps(TraceEvent(root).to_record())
        return parse_event(line).root

    def test_round_trips_equal(self):
        root = _lifecycle_trace(Tracer())
        rebuilt = self._round_trip(root)
        assert encode_trace(rebuilt) == encode_trace(root)
        assert [s.name for s in rebuilt.trace] == [s.name for s in root.trace]
        for before, after in zip(root.trace, rebuilt.trace):
            assert (after.start, after.end) == (before.start, before.end)
            assert after.attributes == before.attributes
            assert after.events == before.events
            assert after.trace is rebuilt.trace
            if before.parent is None:
                assert after.parent is None
            else:
                assert (
                    rebuilt.trace.index(after.parent)
                    == root.trace.index(before.parent)
                )

    def test_unfinished_span_and_events_survive(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=1.0, qname="q.")
        hung = tracer.start_span("resolver.exchange", at=1.0, ns="192.0.2.1")
        hung.event("udp.sent", at=1.0, bytes=40)
        # ``hung`` never finishes: the producer died mid-exchange.
        tracer.finish_span(root, at=1.0)
        rows = encode_trace(root)
        assert rows[1][:4] == [0, "resolver.exchange", 1.0, None]
        rebuilt = self._round_trip(root)
        assert rebuilt.trace[1].end is None and not rebuilt.trace[1].finished
        assert rebuilt.trace[1].events[0].name == "udp.sent"
        assert rebuilt.trace[1].events[0].attributes == {"bytes": 40}
        assert encode_trace(decode_trace(rows)) == rows

    def test_readers_print_what_the_span_tree_printed(self, tmp_path):
        from repro.telemetry import render_trace
        from repro.telemetry.analysis import (
            critical_path,
            describe_critical_path,
        )

        live = _lifecycle_trace(Tracer())
        path = tmp_path / "one.events.jsonl"
        with EventLogWriter(path) as sink:
            sink.emit_span(live)
        (event,) = read_events(path)
        for root in (live, event.root):
            assert render_trace(root) == LIFECYCLE_RENDERED
            assert describe_critical_path(root) == LIFECYCLE_CRITICAL_PATH
            assert [span.name for span in critical_path(root)] == [
                "resolver.resolve", "resolver.exchange",
                "net.round_trip", "auth.query",
            ]
