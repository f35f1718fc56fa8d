"""Run-profiler semantics: phase timers, counters, the exported dict."""

from repro.telemetry import NullProfiler, RunProfiler


class TestPhases:
    def test_phase_accumulates_time_and_calls(self):
        profiler = RunProfiler()
        for _ in range(3):
            with profiler.phase("measure"):
                pass
        entry = profiler.phases["measure"]
        assert entry["calls"] == 3
        assert entry["seconds"] >= 0.0

    def test_distinct_phases_tracked_separately(self):
        profiler = RunProfiler()
        with profiler.phase("deploy"):
            pass
        with profiler.phase("measure"):
            pass
        assert set(profiler.phases) == {"deploy", "measure"}

    def test_phase_recorded_even_when_body_raises(self):
        profiler = RunProfiler()
        try:
            with profiler.phase("explode"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert profiler.phases["explode"]["calls"] == 1


class TestCountersAndValues:
    def test_count_accumulates(self):
        profiler = RunProfiler()
        profiler.count("observations")
        profiler.count("observations", 9)
        assert profiler.counters["observations"] == 10

    def test_record_overwrites(self):
        profiler = RunProfiler()
        profiler.record("seed", 1)
        profiler.record("seed", 42)
        assert profiler.values["seed"] == 42


class TestExport:
    def test_as_dict_shape(self):
        profiler = RunProfiler()
        with profiler.phase("measure"):
            pass
        profiler.count("runs")
        profiler.record("combo", "2C")
        data = profiler.as_dict()
        assert data["phases"]["measure"]["calls"] == 1
        assert data["counters"] == {"runs": 1.0}
        assert data["values"] == {"combo": "2C"}
        assert data["total_seconds"] >= 0.0


class TestNullProfiler:
    def test_absorbs_everything(self):
        profiler = NullProfiler()
        assert profiler.enabled is False
        with profiler.phase("anything"):
            profiler.count("c")
        assert profiler.phases == {} and profiler.counters == {}
