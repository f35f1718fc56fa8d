"""Edge-path tests: truncated logs, drop accounting, merge degenerate
cases, and what the in-memory sink guarantees about the lines it holds."""

import json
import logging
import math

import pytest

from repro.telemetry import (
    EventLogError,
    EventLogFollower,
    EventLogWriter,
    MetricsRegistry,
    Note,
    Tracer,
    read_events,
)


def _held(value):
    """The record an in-memory sink holds for a note carrying ``value``."""
    sink = EventLogWriter()
    sink.emit(Note(name="n", data={"v": value}))
    (record,) = sink.iter_records()
    return record["data"]["v"]


class TestCanonicalJsonValue:
    """An in-memory sink holds serialised lines, so its records are
    detached from the caller and plain JSON by construction — the
    contract a hand-written copier used to imitate (hence the name)."""

    def test_matches_json_roundtrip(self):
        value = {
            "s": "x", "i": 3, "f": 2.5, "b": True, "n": None,
            "nested": {"t": (1, 2), "l": [{"k": False}]},
            1: "int key", 2.5: "float key", True: "bool key",
            None: "none key",
        }
        assert _held(value) == json.loads(json.dumps(value))

    def test_tuples_become_lists(self):
        assert _held((1, ("a",))) == [1, ["a"]]

    def test_subclasses_collapse_to_plain_types(self):
        class MyInt(int):
            pass

        class MyFloat(float):
            pass

        out = _held({"i": MyInt(7), "f": MyFloat(1.5)})
        assert type(out["i"]) is int and type(out["f"]) is float

    def test_non_json_values_raise(self):
        # ... at emit time, in the caller's frame — not at merge time.
        with pytest.raises(TypeError):
            _held({"bad": object()})
        with pytest.raises(TypeError):
            _held({("tuple", "key"): 1})

    def test_result_is_detached_from_the_input(self):
        original = {"list": [1, 2]}
        sink = EventLogWriter()
        sink.emit(Note(name="n", data=original))
        original["list"].append(3)
        assert next(sink.iter_records())["data"] == {"list": [1, 2]}

    def test_recording_sink_uses_it(self, tmp_path):
        sink = EventLogWriter()
        note = Note(name="n", data={"shared": [1], 7: (1, 2)})
        with EventLogWriter(tmp_path / "seg.jsonl") as spilled:
            sink.emit(note)
            spilled.emit(note)
        note.data["shared"].append(2)  # later mutation must not leak in
        (record,) = sink.iter_records()
        assert record["data"] == {"shared": [1], "7": [1, 2]}
        # Both modes serialise at emit: the file holds the same line.
        assert (tmp_path / "seg.jsonl").read_text().splitlines()[1:] == sink.lines


class TestTruncatedLogs:
    def _write_log(self, path, lines_after_header):
        with EventLogWriter(path) as writer:
            writer.emit(Note(name="ok", data={}))
        with path.open("a") as fh:
            fh.write(lines_after_header)

    def test_reader_skips_truncated_final_line(self, tmp_path, caplog):
        path = tmp_path / "log.jsonl"
        self._write_log(path, '{"kind": "note", "name": "half')
        with caplog.at_level(logging.WARNING, logger="repro.telemetry"):
            events = list(read_events(path))
        assert len(events) == 1  # the complete line survives
        assert "truncated final line" in caplog.text

    def test_reader_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write_log(path, 'garbage\n{"kind": "note", "name": "x", "data": {}}\n')
        with pytest.raises(EventLogError, match="corrupt event line"):
            list(read_events(path))

    def test_follower_holds_partial_line_until_complete(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = EventLogWriter(path)
        record = json.dumps(Note(name="n", data={}).to_record())
        with path.open("a") as fh, EventLogFollower(path) as follower:
            assert follower.poll() == []
            fh.write(record[:10])
            fh.flush()
            assert follower.poll() == []  # half a line is not an event
            fh.write(record[10:] + "\n")
            fh.flush()
            (event,) = follower.poll()
            assert isinstance(event, Note)
        writer.close()

    def test_follower_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "repro-events"')  # no newline yet
        with pytest.raises(EventLogError, match="truncated header"):
            EventLogFollower(path)

    def test_follower_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(EventLogError, match="not an event log"):
            EventLogFollower(path)

    def test_follower_poll_after_close_is_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        EventLogWriter(path).close()
        follower = EventLogFollower(path)
        follower.close()
        assert follower.poll() == []


class TestTracerDropAccounting:
    def _finish_roots(self, tracer, count):
        for i in range(count):
            span = tracer.start_span("resolver.resolve", at=float(i))
            tracer.finish_span(span, at=float(i) + 0.1)

    def test_unstreamed_drops_warn_once(self, caplog):
        tracer = Tracer(max_traces=1)
        with caplog.at_level(logging.WARNING, logger="repro.telemetry.tracing"):
            self._finish_roots(tracer, 4)
        assert tracer.dropped_traces == 3
        assert tracer.dropped_unstreamed == 3
        warnings = [r for r in caplog.records if "max_traces" in r.message]
        assert len(warnings) == 1  # one-shot, not per trace

    def test_streamed_drops_are_not_data_loss(self, tmp_path, caplog):
        sink = EventLogWriter(tmp_path / "log.jsonl")
        tracer = Tracer(max_traces=0, sink=sink)
        with caplog.at_level(logging.WARNING, logger="repro.telemetry.tracing"):
            self._finish_roots(tracer, 3)
        sink.close()
        assert tracer.dropped_traces == 3  # not retained in memory ...
        assert tracer.dropped_unstreamed == 0  # ... but safe on disk
        assert caplog.text == ""
        assert len(list(read_events(sink.path))) == 3

    def test_drop_gauges_surface_only_when_nonzero(self):
        from repro.telemetry import Telemetry

        clean = Telemetry.enabled_bundle(max_traces=10)
        clean.surface_drop_counters()
        assert "telemetry_dropped_traces" not in clean.registry.as_dict()

        lossy = Telemetry.enabled_bundle(max_traces=0)
        span = lossy.tracer.start_span("resolver.resolve", at=0.0)
        lossy.tracer.finish_span(span, at=0.1)
        lossy.surface_drop_counters()
        metrics = lossy.registry.as_dict()
        assert metrics["telemetry_dropped_traces"]["samples"][0]["value"] == 1.0


class TestDegenerateMerges:
    def _registry(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "rtt_ms", "rtt", ("site",), buckets=(10.0, 100.0)
        )
        for value in values:
            histogram.labels(site="FRA").observe(value)
        return registry

    def test_merge_with_empty_partial_is_identity(self):
        whole = self._registry([5.0, 50.0])
        merged = MetricsRegistry().merge(self._registry([5.0, 50.0]))
        merged = merged.merge(self._registry([]))
        assert merged.to_json() == whole.to_json()

    def test_merge_of_singletons_equals_unsharded(self):
        values = [3.0, 42.0, 420.0]
        whole = self._registry(values)
        merged = MetricsRegistry()
        for value in values:
            merged = merged.merge(self._registry([value]))
        assert merged.to_json() == whole.to_json()

    def test_merge_two_empty_registries(self):
        merged = MetricsRegistry().merge(MetricsRegistry())
        assert merged.as_dict() == {}

    def test_quantiles_from_empty_and_singleton_histograms(self):
        from repro.telemetry import quantile_from_buckets

        empty = self._registry([])
        # a registered family with no observations exports no series
        assert empty.as_dict()["rtt_ms"]["samples"] == []
        assert math.isnan(
            quantile_from_buckets((10.0, 100.0), [0, 0], 0, 0.99)
        )
        single = self._registry([42.0])
        sample = single.as_dict()["rtt_ms"]["samples"][0]
        # with min==max tracked, a singleton's quantile is exact
        assert sample["quantiles"]["0.99"] == 42.0
        assert quantile_from_buckets(
            (10.0, 100.0), [0, 1], 1, 0.99,
            minimum=sample["min"], maximum=sample["max"],
        ) == 42.0
