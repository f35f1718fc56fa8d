"""Spill-to-disk event transport: bounded workers, identical merges."""

import json

import pytest

from repro.core import ExperimentConfig, run_parallel
from repro.telemetry import (
    EVENT_LOG_KIND,
    EVENT_SCHEMA_VERSION,
    EventLogError,
    EventLogFollower,
    EventLogWriter,
    Note,
    Telemetry,
    iter_raw_records,
    read_events,
)


def small_config(**overrides):
    defaults = dict(num_probes=24, interval_s=120.0, duration_s=240.0, seed=5)
    defaults.update(overrides)
    return ExperimentConfig.for_combination("2C", **defaults)


class TestSpillingEventSink:
    def test_header_written_eagerly(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        EventLogWriter(path).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == EVENT_LOG_KIND
        assert header["version"] == EVENT_SCHEMA_VERSION

    def test_buffer_is_bounded(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        sink = EventLogWriter(path, max_buffered=3)
        sink.emit(Note("marker", {"n": 0}))
        sink.emit(Note("marker", {"n": 1}))
        # Below capacity: records are buffered, only the header is out.
        assert len(path.read_text().splitlines()) == 1
        assert len(sink.lines) == 2
        sink.emit(Note("marker", {"n": 2}))
        # Capacity reached: the buffer spilled and emptied.
        assert len(path.read_text().splitlines()) == 4
        assert sink.lines == []
        sink.close()
        assert sink.emitted == 3

    def test_rejects_nonpositive_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter(tmp_path / "seg.jsonl", max_buffered=0)

    def test_shard_tagging_and_record_round_trip(self, tmp_path):
        # The only shard tag left is the one a heartbeat note carries in
        # its own data; the writer adds nothing to a record.
        path = tmp_path / "seg.jsonl"
        sink = EventLogWriter(path)
        sink.emit(Note("shard.heartbeat", {"shard": 7, "tick": 1}))
        sink.close()
        records = list(iter_raw_records(path))
        assert records == [{
            "kind": "note", "at": None, "name": "shard.heartbeat",
            "data": {"shard": 7, "tick": 1},
        }]
        assert list(sink.iter_records()) == records
        # The in-memory mode holds the same line the file does.
        in_memory = EventLogWriter()
        in_memory.emit(Note("shard.heartbeat", {"shard": 7, "tick": 1}))
        assert in_memory.lines == path.read_text().splitlines()[1:]
        assert list(in_memory.iter_records()) == records

    def test_emit_after_close_drops(self, tmp_path, caplog):
        # One rule in both modes: spilled segment and in-memory lines.
        in_memory = EventLogWriter()
        for sink in (EventLogWriter(tmp_path / "seg.jsonl"), in_memory):
            caplog.clear()
            sink.emit(Note("marker", {}))
            sink.close()
            assert sink.closed
            assert sink.emit(Note("marker", {})) is False
            assert sink.emit_line('{"kind": "note"}') is False
            assert sink.dropped == 2
            assert sink.emitted == 1
            assert len(caplog.records) == 1  # warned once
            # What was emitted before the close stays readable.
            assert list(sink.iter_records()) == [
                {"kind": "note", "at": None, "name": "marker", "data": {}}
            ]
        assert len(in_memory.lines) == 1

    def test_follower_tails_a_spilling_segment(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        sink = EventLogWriter(path, max_buffered=2)
        follower = EventLogFollower(path)
        assert follower.poll() == []
        sink.emit(Note("marker", {"n": 0}))
        sink.emit(Note("marker", {"n": 1}))  # hits capacity -> spills
        polled = follower.poll()
        assert len(polled) == 2
        sink.close()
        follower.close()

    def test_segment_is_readable_as_an_event_log(self, tmp_path):
        path = tmp_path / "seg.jsonl"
        sink = EventLogWriter(path)
        for index in range(4):
            sink.emit(Note("marker", {"n": index}))
        sink.close()
        assert len(list(read_events(path))) == 4

    def test_iter_raw_records_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-log.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(EventLogError):
            list(iter_raw_records(path))


class TestSpillingParallelRuns:
    def test_merged_log_identical_with_and_without_spilling(self, tmp_path):
        config = small_config(scenario="ns-outage")

        in_memory = tmp_path / "in-memory.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=str(in_memory))
        run_parallel(config, workers=2, shards=4, telemetry=telemetry)
        telemetry.events.close()

        spilled = tmp_path / "spilled.events.jsonl"
        spill_dir = tmp_path / "segments"
        telemetry = Telemetry.enabled_bundle(event_log=str(spilled))
        run_parallel(
            config, workers=2, shards=4, telemetry=telemetry,
            spill_dir=spill_dir,
        )
        telemetry.events.close()

        assert in_memory.read_bytes() == spilled.read_bytes()
        # One follower-compatible segment per shard was left behind.
        segments = sorted(p.name for p in spill_dir.iterdir())
        assert segments == [
            f"shard-{index:04d}.events.jsonl" for index in range(4)
        ]
        for segment in spill_dir.iterdir():
            assert json.loads(
                segment.read_text().splitlines()[0]
            )["kind"] == EVENT_LOG_KIND
