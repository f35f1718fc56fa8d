"""Tests for the live campaign monitor and its event-log transport."""

import math

from repro.telemetry import (
    CampaignMonitor,
    EventLogWriter,
    MetricsSnapshot,
    Note,
    RunMeta,
    TraceEvent,
    Tracer,
    read_events,
    replay_monitor,
)
from repro.telemetry.monitor import HEARTBEAT_NOTE, ShardProgress, _bar

from .test_analysis import make_trace


def _heartbeat(shard, tick, ticks, at=0.0, observations=0, vps=5):
    return Note(name=HEARTBEAT_NOTE, at=at, data={
        "shard": shard, "tick": tick, "ticks": ticks,
        "observations": observations, "vantage_points": vps,
        "virtual_s": at,
    })


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCampaignMonitor:
    def _trace_events(self, count=3, rtt=40.0):
        tracer = Tracer()
        for i in range(count):
            make_trace(tracer, start=float(i),
                       attempts=[("10.0.0.53", "ok", rtt)])
        return [TraceEvent(root=root) for root in tracer.traces()]

    def test_counts_and_latency(self):
        monitor = CampaignMonitor(clock=FakeClock())
        monitor.consume(self._trace_events(count=4, rtt=100.0))
        assert monitor.queries == 4
        assert monitor.answer_rate == 1.0
        assert monitor.ns_counts == {"10.0.0.53": 4}
        assert monitor.p50.value == 100.0

    def test_heartbeats_drive_progress_and_eta(self):
        clock = FakeClock()
        monitor = CampaignMonitor(clock=clock)
        monitor.consume([_heartbeat(0, 5, 10), _heartbeat(1, 10, 10)])
        assert monitor.progress == 0.75
        clock.now = 30.0  # 75% done after 30s -> 10s remain
        assert monitor.eta_s() == 10.0

    def test_eta_none_without_heartbeats_or_after_finish(self):
        monitor = CampaignMonitor(clock=FakeClock())
        assert monitor.eta_s() is None
        monitor.consume([_heartbeat(0, 5, 10)])
        monitor.consume([MetricsSnapshot(metrics={}, at=600.0)])
        assert monitor.finished
        assert monitor.eta_s() is None

    def test_latest_heartbeat_wins_per_shard(self):
        monitor = CampaignMonitor(clock=FakeClock())
        monitor.consume([_heartbeat(0, 1, 10), _heartbeat(0, 7, 10)])
        assert monitor.shards[0].tick == 7

    def test_active_faults_track_virtual_time(self):
        monitor = CampaignMonitor(clock=FakeClock())
        monitor.consume([
            Note(name="fault.start", at=100.0,
                 data={"fault": "ns_outage", "address": "a", "target": "ns1"}),
            Note(name="fault.end", at=200.0,
                 data={"fault": "ns_outage", "address": "a", "target": "ns1"}),
            _heartbeat(0, 1, 10, at=150.0),
        ])
        assert [w.label for w in monitor.active_faults()] == ["ns_outage@ns1"]
        monitor.consume([_heartbeat(0, 2, 10, at=250.0)])
        assert monitor.active_faults() == []

    def test_render_sections(self):
        monitor = CampaignMonitor(clock=FakeClock())
        monitor.consume([RunMeta(run={"domain": "d.nl.", "num_probes": 5,
                                      "seed": 1, "scenario": None})])
        monitor.consume(self._trace_events())
        monitor.consume([_heartbeat(0, 2, 10)])
        text = monitor.render(title="t")
        assert "=== t — running ===" in text
        assert "Per-NS query share" in text
        assert "Shard progress" in text
        monitor.consume([MetricsSnapshot(metrics={}, at=0.0)])
        assert "finished" in monitor.render()

    def test_render_before_any_events(self):
        text = CampaignMonitor(clock=FakeClock()).render()
        assert "queries=0" in text
        assert "p50=-" in text  # empty sketches render as dashes


class TestShardProgress:
    def test_fraction_handles_zero_ticks(self):
        assert ShardProgress(shard=0).fraction == 0.0
        assert ShardProgress(shard=0, tick=3, ticks=6).fraction == 0.5

    def test_bar_clamps(self):
        assert _bar(2.0, width=4) == "####"
        assert _bar(-1.0, width=4) == "...."


class TestReplay:
    def test_replay_from_saved_log(self, tmp_path):
        tracer = Tracer()
        make_trace(tracer, start=1.0)
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path) as writer:
            writer.emit(RunMeta(run={"domain": "d.nl."}, at=0.0))
            for root in tracer.traces():
                writer.emit(TraceEvent(root=root))
            writer.emit(MetricsSnapshot(metrics={}, at=9.0))
        monitor = replay_monitor(list(read_events(path)))
        assert monitor.finished
        assert monitor.queries == 1
        assert monitor.meta == {"domain": "d.nl."}
        assert monitor.virtual_now == 9.0

    def test_non_resolve_roots_are_ignored(self):
        tracer = Tracer()
        span = tracer.start_span("auth.zone_transfer", at=0.0)
        tracer.finish_span(span, at=1.0)
        monitor = CampaignMonitor(clock=FakeClock())
        monitor.consume([TraceEvent(root=root) for root in tracer.traces()])
        assert monitor.queries == 0


class TestHeartbeatPlumbing:
    def test_measure_emits_heartbeats_to_the_event_log(self, tmp_path):
        from repro.core import ExperimentConfig, TestbedExperiment
        from repro.telemetry import Telemetry

        path = tmp_path / "live.jsonl"
        config = ExperimentConfig.for_combination(
            "2C", num_probes=4, interval_s=120.0, duration_s=480.0,
            seed=3, heartbeat_every_ticks=2,
        )
        telemetry = Telemetry.enabled_bundle(event_log=path)
        TestbedExperiment(config, telemetry=telemetry, shard=2).run()
        telemetry.events.close()
        beats = [e for e in read_events(path)
                 if isinstance(e, Note) and e.name == HEARTBEAT_NOTE]
        assert [b.data["tick"] for b in beats] == [2, 4]
        assert all(b.data["shard"] == 2 for b in beats)
        assert all(b.data["ticks"] == 4 for b in beats)

    def test_heartbeats_with_telemetry_off_change_nothing(self):
        """Configured every tick, nobody listening: the plain campaign."""
        from repro.core import run_combination

        kwargs = dict(num_probes=30, interval_s=120.0, duration_s=480.0, seed=3)
        plain = run_combination("2C", **kwargs)
        idle = run_combination("2C", heartbeat_every_ticks=1, **kwargs)
        assert idle.run.observations == plain.run.observations
        assert idle.server_query_counts == plain.server_query_counts

    def test_heartbeats_never_reach_the_merged_log(self, tmp_path):
        from repro.core import ExperimentConfig
        from repro.core.parallel import run_parallel
        from repro.telemetry import Telemetry

        def merged(workers, path):
            config = ExperimentConfig.for_combination(
                "2C", num_probes=6, interval_s=120.0, duration_s=480.0,
                seed=5, heartbeat_every_ticks=1,
            )
            telemetry = Telemetry.enabled_bundle(event_log=path)
            run_parallel(config, workers=workers, shards=2,
                         telemetry=telemetry)
            telemetry.events.close()
            return path.read_bytes()

        serial = merged(1, tmp_path / "serial.jsonl")
        parallel = merged(2, tmp_path / "parallel.jsonl")
        assert HEARTBEAT_NOTE.encode() not in serial
        # the monitor costs nothing in the canonical output: byte
        # identity holds with heartbeats enabled, any worker count
        assert serial == parallel
