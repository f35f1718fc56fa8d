"""The run scorecard (once the `dashboard` command, now `top`'s finished
frame): a live registry and a saved event log render identically."""


import pytest

from repro.core import ExperimentConfig, TestbedExperiment
from repro.telemetry import (
    CampaignMonitor,
    EventLog,
    MetricsSnapshot,
    Telemetry,
    read_events,
    replay_monitor,
)


def render_scorecard(metrics: dict, title: str = "X") -> str:
    """The finished frame of a monitor that saw only ``metrics``."""
    monitor = CampaignMonitor()
    monitor.consume([MetricsSnapshot(metrics=metrics, at=0.0)])
    return monitor.render(title=title)


@pytest.fixture(scope="module")
def run_with_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("dash") / "run.jsonl"
    telemetry = Telemetry.enabled_bundle(event_log=path)
    config = ExperimentConfig.for_combination(
        "2C", num_probes=10, interval_s=120.0, duration_s=600.0, seed=3
    )
    TestbedExperiment(config, telemetry=telemetry).run()
    telemetry.events.close()
    return telemetry, path


class TestRenderDashboard:
    def test_sections_present(self, run_with_log):
        _, path = run_with_log
        text = replay_monitor(list(read_events(path))).render()
        assert "Per-NS query share vs. resolver-observed RTT" in text
        assert "cache outcomes" in text
        assert "Loss and failure" in text

    def test_share_sums_to_hundred(self, run_with_log):
        telemetry, _ = run_with_log
        text = render_scorecard(telemetry.registry.as_dict())
        shares = [
            float(cell.rstrip("%"))
            for line in text.splitlines()
            for cell in line.split()
            if cell.endswith("%") and line.startswith("10.")
        ]
        assert sum(shares) == pytest.approx(100.0, abs=0.2)

    def test_empty_metrics_render(self):
        text = render_scorecard({}, title="empty")
        assert "=== empty — finished ===" in text
        assert "queries=0" in text


class TestLiveLogParity:
    def test_log_dashboard_matches_live_registry(self, run_with_log):
        """Offline rendering equals the live one."""
        telemetry, path = run_with_log
        live = render_scorecard(telemetry.registry.as_dict())
        offline = render_scorecard(EventLog.load(path).last_metrics())
        assert offline == live

    def test_render_from_log_titles_from_run_meta(self, run_with_log):
        _, path = run_with_log
        text = replay_monitor(list(read_events(path))).render()
        assert "seed=3" in text
        assert "probes=10" in text
