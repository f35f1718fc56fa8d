"""Event-log pipeline: write → read round-trips, buffering, drops."""

import json
import logging

import pytest

from repro.core import ExperimentConfig, TestbedExperiment
from repro.telemetry import (
    EVENT_LOG_KIND,
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventLogError,
    EventLogWriter,
    MetricsSnapshot,
    Note,
    RawEvent,
    RunMeta,
    Telemetry,
    TraceEvent,
    Tracer,
    EventLogFollower,
    decode_trace,
    encode_trace,
    parse_event,
    read_events,
)


def small_config(**overrides):
    defaults = dict(
        num_probes=10, interval_s=120.0, duration_s=600.0, seed=7
    )
    defaults.update(overrides)
    return ExperimentConfig.for_combination("2C", **defaults)


class TestWriter:
    def test_header_written_eagerly(self, tmp_path):
        path = tmp_path / "log.jsonl"
        EventLogWriter(path, meta={"purpose": "test"}).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == EVENT_LOG_KIND
        assert header["version"] == EVENT_SCHEMA_VERSION
        assert header["meta"] == {"purpose": "test"}

    def test_buffering_and_explicit_flush(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = EventLogWriter(path, max_buffered=100)
        writer.emit(Note("marker", {"n": 1}))
        assert len(path.read_text().splitlines()) == 1  # header only
        writer.flush()
        assert len(path.read_text().splitlines()) == 2
        writer.close()

    def test_auto_flush_at_capacity(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = EventLogWriter(path, max_buffered=3)
        for index in range(3):
            writer.emit(Note("marker", {"n": index}))
        assert len(path.read_text().splitlines()) == 4  # header + 3
        writer.close()

    def test_emit_after_close_drops_and_warns(self, tmp_path, caplog):
        writer = EventLogWriter(tmp_path / "log.jsonl")
        writer.close()
        with caplog.at_level(logging.WARNING, logger="repro.telemetry.events"):
            assert writer.emit(Note("late")) is False
            assert writer.emit(Note("later")) is False
        assert writer.dropped == 2
        assert sum("dropping" in r.message for r in caplog.records) == 1

    def test_serializes_at_emit_time(self, tmp_path):
        """Mutating an event's dict after emit must not change the log."""
        path = tmp_path / "log.jsonl"
        data = {"value": 1}
        with EventLogWriter(path) as writer:
            writer.emit(Note("snap", data))
            data["value"] = 2
        (event,) = list(read_events(path))
        assert event.data == {"value": 1}

    def test_rejects_nonpositive_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter(tmp_path / "log.jsonl", max_buffered=0)


class TestReader:
    def test_rejects_non_event_log(self, tmp_path):
        path = tmp_path / "not.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(EventLogError):
            list(read_events(path))

    def test_rejects_the_previous_schema_version(self, tmp_path):
        # No v1 reader is kept: a nested-tree log is refused up front.
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({"kind": EVENT_LOG_KIND, "version": 1}) + "\n"
        )
        assert EVENT_SCHEMA_VERSION == 2
        for reader in (lambda: list(read_events(path)), lambda: EventLog.load(path)):
            with pytest.raises(EventLogError, match="version 1"):
                reader()

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": EVENT_LOG_KIND, "version": 999}) + "\n"
        )
        with pytest.raises(EventLogError):
            list(read_events(path))

    def test_unknown_kind_survives_as_raw_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"kind": EVENT_LOG_KIND, "version": EVENT_SCHEMA_VERSION})
            + "\n"
            + json.dumps({"kind": "from-the-future", "payload": 42})
            + "\n"
        )
        (event,) = list(read_events(path))
        assert isinstance(event, RawEvent)
        assert event.kind == "from-the-future"
        assert event.record["payload"] == 42


class TestSpanRoundTrip:
    def test_span_tree_survives_dict_round_trip(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=0.0, qname="x.nl.")
        child = tracer.start_span("resolver.exchange", at=0.010)
        child.event("udp.sent", 0.011, size=64)
        tracer.finish_span(child, at=0.010)
        tracer.finish_span(root, at=0.0)
        rebuilt = decode_trace(json.loads(json.dumps(encode_trace(root))))
        assert encode_trace(rebuilt) == encode_trace(root)
        assert rebuilt.trace[1].parent is rebuilt
        assert rebuilt.find("resolver.exchange").events[0].name == "udp.sent"


ROOT_ROW = [-1, "auth.query", 0.0, 0.0, {}, []]


class TestMalformedTraceRecords:
    """A trace record the writer could not have produced is an
    :class:`EventLogError`, never a ``KeyError`` or ``IndexError``; a
    reader names the line that holds it."""

    def test_a_trace_without_spans(self):
        with pytest.raises(EventLogError, match="trace record without 'spans'"):
            parse_event('{"kind": "trace"}')

    def test_a_trace_with_no_span_rows(self):
        with pytest.raises(EventLogError, match="at least one span row"):
            parse_event('{"kind": "trace", "spans": []}')

    def test_a_parent_past_its_row(self):
        rows = [ROOT_ROW, [1, "net.round_trip", 0.0, 0.0, {}, []]]
        with pytest.raises(EventLogError, match="span row 1: parent 1"):
            parse_event(json.dumps({"kind": "trace", "spans": rows}))
        with pytest.raises(EventLogError, match="span row 0: parent 0"):
            decode_trace([[0, "auth.query", 0.0, 0.0, {}, []]])

    def test_a_row_of_two_fields(self):
        with pytest.raises(EventLogError, match="span row 0 is not six fields"):
            parse_event('{"kind": "trace", "spans": [[-1, "auth.query"]]}')

    def test_readers_name_the_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        header = {"kind": EVENT_LOG_KIND, "version": EVENT_SCHEMA_VERSION}
        good = {"kind": "trace", "spans": [ROOT_ROW]}
        path.write_text("".join(
            json.dumps(record) + "\n"
            for record in (header, good, good, {"kind": "trace", "spans": []})
        ))
        where = f"{path}: line 4: a trace needs"
        with pytest.raises(EventLogError, match=where):
            list(read_events(path))
        with pytest.raises(EventLogError, match=where):
            EventLog.load(path)
        with EventLogFollower(path) as follower:
            with pytest.raises(EventLogError, match=where):
                follower.poll()

    def test_the_follower_counts_lines_across_polls(self, tmp_path):
        path = tmp_path / "log.jsonl"
        EventLogWriter(path).close()
        good = json.dumps({"kind": "trace", "spans": [ROOT_ROW]}) + "\n"
        with EventLogFollower(path) as follower:
            with path.open("a") as fh:
                fh.write(good + "\n" + good[:10])
            assert len(follower.poll()) == 1
            with path.open("a") as fh:
                fh.write(good[10:] + '{"kind": "metrics"}\n')
            with pytest.raises(
                EventLogError, match=f"{path}: line 5: metrics record without"
            ):
                follower.poll()


class TestSeededRunRoundTrip:
    def test_seeded_run_streams_and_round_trips(self, tmp_path):
        """Acceptance criterion: a seeded 2C run's event log is lossless."""
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path)
        TestbedExperiment(small_config(), telemetry=telemetry).run()
        telemetry.events.close()
        assert telemetry.events.dropped == 0

        log = EventLog.load(path)
        # run_meta first, then traces, then the closing snapshot
        meta = log.run_meta()
        assert meta["seed"] == 7 and meta["num_probes"] == 10
        assert log.last_metrics() == telemetry.registry.as_dict()
        assert log.events[-1].kind == MetricsSnapshot.kind
        live = [encode_trace(root) for root in telemetry.tracer.traces()]
        replayed = [encode_trace(root) for root in log.traces()]
        assert replayed == live
        assert len(replayed) > 0

    def test_streaming_outlives_tracer_retention(self, tmp_path):
        """Disk is the unbounded store: traces stream even when the
        in-memory tracer retains only a handful."""
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path, max_traces=2)
        TestbedExperiment(small_config(), telemetry=telemetry).run()
        telemetry.events.close()
        log = EventLog.load(path)
        assert len(telemetry.tracer.traces()) == 2
        assert len(log.traces()) > 2

    def test_same_seed_same_log_payload(self, tmp_path):
        def run(path):
            telemetry = Telemetry.enabled_bundle(event_log=path)
            TestbedExperiment(small_config(), telemetry=telemetry).run()
            telemetry.events.close()
            return path.read_text()

        # nothing wall-clock is logged: the whole file repeats
        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_disabled_bundle_writes_nothing(self, tmp_path):
        telemetry = Telemetry.disabled_bundle()
        TestbedExperiment(small_config(), telemetry=telemetry).run()
        assert telemetry.events.emitted == 0

    def test_finalize_is_idempotent_per_call(self, tmp_path):
        path = tmp_path / "log.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path)
        telemetry.finalize_events(at=1.0)
        telemetry.finalize_events(at=2.0, close=True)
        log = EventLog.load(path)
        snapshots = [e for e in log.events if e.kind == MetricsSnapshot.kind]
        assert [snap.at for snap in snapshots] == [1.0, 2.0]


class TestEventLogAccessors:
    def test_of_kind_and_typed_accessors(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path) as writer:
            writer.emit(RunMeta({"domain": "x.nl."}, at=0.0))
            writer.emit(Note("checkpoint", at=5.0))
            writer.emit(MetricsSnapshot({"m": {}}, at=9.0))
        log = EventLog.load(path)
        assert len(log) == 3
        assert [event.kind for event in log.events] == [
            "run_meta", "note", "metrics",
        ]
        assert log.run_meta() == {"domain": "x.nl."}
        assert log.last_metrics() == {"m": {}}
        assert log.traces() == []
