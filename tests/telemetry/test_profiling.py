"""Run-profiler semantics: phase timers, counters, the exported dict.

Plus the rest of the performance observatory: the sampling profiler's
two modes and the allocation observatory.
"""

import pytest

from repro.telemetry import (
    AllocationObservatory,
    NULL_ALLOC,
    NULL_SAMPLER,
    NullProfiler,
    RunProfiler,
    SamplingProfiler,
    subsystem_of_path,
)


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

    def test_render_orders_by_time(self):
        profiler = RunProfiler()
        profiler._record_phase("slow", 2.0)
        profiler._record_phase("fast", 0.5)
        lines = profiler.render().splitlines()
        assert "slow" in lines[1]
        assert "fast" in lines[2]


class TestNullProfiler:
    def test_absorbs_everything(self):
        profiler = NullProfiler()
        assert profiler.enabled is False
        with profiler.phase("anything"):
            profiler.count("c")
            profiler.record("k", "v")
        assert profiler.as_dict() == {}
        assert profiler.render() == ""


def _codec_work(n: int = 4000):
    """Burn cycles inside repro.dns so the profiler sees 'codec'."""
    from repro.dns.name import Name

    for index in range(n):
        Name.from_text(f"m-{index}.probe.example.nl.").to_wire()


class TestSubsystemMapping:
    def test_known_packages(self):
        assert subsystem_of_path("/x/src/repro/dns/name.py") == "codec"
        assert subsystem_of_path("/x/src/repro/netsim/network.py") == "netsim"
        assert subsystem_of_path("/x/src/repro/telemetry/costs.py") == "telemetry"
        assert subsystem_of_path("/x/src/repro/core/experiment.py") == "platform"
        assert subsystem_of_path("/x/src/repro/atlas/platform.py") == "platform"

    def test_selector_files_split_from_resolvers(self):
        assert subsystem_of_path("/x/src/repro/resolvers/bind.py") == "selectors"
        assert (
            subsystem_of_path("/x/src/repro/resolvers/resolver.py")
            == "resolvers"
        )

    def test_foreign_paths_are_other(self):
        assert subsystem_of_path("/usr/lib/python3.11/random.py") == "other"


class TestSamplingProfilerTrace:
    def test_trace_mode_partitions_the_window(self):
        sampler = SamplingProfiler(mode="trace")
        with sampler.activate():
            _codec_work()
        assert sampler.windows == 1
        assert sampler.window_s > 0.0
        # self-times partition the window exactly (up to float error)
        assert sampler.attributed_share == pytest.approx(1.0, abs=0.01)
        assert sampler.self_s.get("codec", 0.0) > 0.0
        # cumulative time >= self time for the subsystem doing the work
        assert sampler.cum_s["codec"] >= sampler.self_s["codec"] * 0.99

    def test_windows_accumulate(self):
        sampler = SamplingProfiler(mode="trace")
        for _ in range(2):
            with sampler.activate():
                _codec_work(500)
        assert sampler.windows == 2

    def test_nested_activation_is_single_counted(self):
        sampler = SamplingProfiler(mode="trace")
        with sampler.activate(), sampler.activate():
            _codec_work(500)
        assert sampler.windows == 1

    def test_as_dict_shape(self):
        sampler = SamplingProfiler(mode="trace")
        with sampler.activate():
            _codec_work(500)
        data = sampler.as_dict()
        assert data["mode"] == "trace"
        assert data["windows"] == 1
        assert "codec" in data["subsystems"]
        stats = data["subsystems"]["codec"]
        assert set(stats) == {"self_s", "cum_s", "share"}

    def test_render_mentions_subsystems(self):
        sampler = SamplingProfiler(mode="trace")
        with sampler.activate():
            _codec_work(500)
        assert "codec" in sampler.render()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(mode="magic")


class TestSamplingProfilerSample:
    def test_sample_mode_collects_collapsed_stacks(self):
        sampler = SamplingProfiler(mode="sample", interval_s=0.001)
        with sampler.activate():
            _codec_work(20000)
        assert sampler.samples > 0
        collapsed = sampler.collapsed()
        lines = collapsed.splitlines()
        assert lines
        # flamegraph format: "frame;frame;... count"
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack
        assert "codec:" in collapsed

    def test_sample_weights_sum_to_window(self):
        sampler = SamplingProfiler(mode="sample", interval_s=0.001)
        with sampler.activate():
            _codec_work(20000)
        assert sampler.attributed_share == pytest.approx(1.0, rel=0.05)

    def test_trace_mode_has_no_stacks(self):
        sampler = SamplingProfiler(mode="trace")
        with sampler.activate():
            _codec_work(100)
        assert sampler.collapsed() == ""


class TestNullSampler:
    def test_null_sampler_is_inert(self):
        with NULL_SAMPLER.activate():
            pass
        assert NULL_SAMPLER.enabled is False
        assert NULL_SAMPLER.as_dict() == {}
        assert NULL_SAMPLER.collapsed() == ""
        assert NULL_SAMPLER.render() == ""


class TestAllocationObservatory:
    def test_tracks_allocations_per_phase(self):
        observatory = AllocationObservatory(top=3)
        with observatory.activate():
            with observatory.phase("grow"):
                keep = [bytearray(1024) for _ in range(512)]
        data = observatory.as_dict()
        assert "grow" in data["phases"]
        assert data["phases"]["grow"]["allocated_kib"] > 100.0
        assert data["phases"]["grow"]["top"]
        del keep

    def test_counts_gc_pauses(self):
        import gc

        observatory = AllocationObservatory()
        with observatory.activate():
            with observatory.phase("collect"):
                gc.collect()
        data = observatory.as_dict()
        assert data["gc_collections"] >= 1
        assert data["gc_pause_s"] >= 0.0

    def test_phase_outside_window_is_noop(self):
        observatory = AllocationObservatory()
        with observatory.phase("ignored"):
            _ = [0] * 1000
        assert observatory.as_dict()["phases"] == {}

    def test_render_names_phases(self):
        observatory = AllocationObservatory(top=2)
        with observatory.activate():
            with observatory.phase("grow"):
                keep = [bytearray(512) for _ in range(256)]
        assert "grow" in observatory.render()
        del keep

    def test_null_observatory_is_inert(self):
        with NULL_ALLOC.activate():
            with NULL_ALLOC.phase("x"):
                pass
        assert NULL_ALLOC.enabled is False
        assert NULL_ALLOC.as_dict() == {}
        assert NULL_ALLOC.render() == ""
