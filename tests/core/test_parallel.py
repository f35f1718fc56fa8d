"""Tests for the sharded parallel experiment engine.

The load-bearing invariant: serial and K-worker runs produce identical
merged analysis output for any K — observations, metrics, and the
event log, byte for byte.
"""

import hashlib
import json

import pytest

from repro.atlas.probes import ProbeGenerator
from repro.core import (
    ExperimentConfig,
    ExperimentResult,
    TestbedExperiment,
    partition_probes,
    run_campaign,
    run_combination,
    run_parallel,
)
from repro.core.experiment import generate_probes
from repro.telemetry import EventLogWriter, Telemetry, TraceEvent, read_events

#: small but non-trivial: ~2 ticks over ~70 VPs keeps one case < 10 s.
CONFIG_KWARGS = dict(num_probes=50, interval_s=120.0, duration_s=240.0, seed=11)


def small_config(**overrides):
    kwargs = {**CONFIG_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", **kwargs)


class TestPartitionProbes:
    def test_partition_preserves_population(self):
        probes = ProbeGenerator(seed=3).generate(80)
        buckets = partition_probes(probes, 4)
        merged = sorted(
            (p for bucket in buckets for p in bucket),
            key=lambda p: p.probe_id,
        )
        assert merged == sorted(probes, key=lambda p: p.probe_id)

    def test_no_as_straddles_shards(self):
        probes = ProbeGenerator(seed=3).generate(120)
        buckets = partition_probes(probes, 5)
        owner = {}
        for index, bucket in enumerate(buckets):
            for probe in bucket:
                assert owner.setdefault(probe.asn, index) == index

    def test_partition_deterministic(self):
        probes = ProbeGenerator(seed=3).generate(60)
        assert partition_probes(probes, 3) == partition_probes(probes, 3)

    def test_balanced_within_reason(self):
        for probes in (
            ProbeGenerator(seed=3).generate(200),
            # the regenerators' campaign (benchmarks/conftest.py)
            generate_probes(small_config(num_probes=300, seed=20170412)),
        ):
            buckets = partition_probes(probes, 4)
            sizes = sorted(len(bucket) for bucket in buckets)
            assert sizes[0] > 0
            assert sizes[-1] - sizes[0] <= max(
                len(group)
                for group in _group_by_asn(probes).values()
            )
            # 4 shards at least halve the critical path, counted in probes
            assert sizes[-1] * 2 <= len(probes)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            partition_probes([], 0)


def _group_by_asn(probes):
    groups = {}
    for probe in probes:
        groups.setdefault(probe.asn, []).append(probe)
    return groups


class TestSerialEquivalence:
    def test_single_worker_matches_testbed_experiment(self):
        config = small_config()
        serial = TestbedExperiment(config).run()
        merged = run_parallel(config, workers=1)
        assert merged.run.observations == serial.run.observations
        assert merged.server_query_counts == dict(
            sorted(serial.server_query_counts.items())
        )
        assert merged.addresses == serial.addresses
        assert merged.site_of_address == serial.site_of_address

    def test_shard_layout_is_invisible(self):
        # Inline (workers=1) with 1, 2, and 5 shards: the partition
        # must not perturb a single observation.
        config = small_config()
        results = [
            run_parallel(config, workers=1, shards=shards)
            for shards in (1, 2, 5)
        ]
        baseline = results[0]
        for result in results[1:]:
            assert result.run.observations == baseline.run.observations
            assert result.server_query_counts == baseline.server_query_counts

    def test_ipv6_population_shards_identically(self):
        config = small_config(ipv6=True, num_probes=60)
        serial = TestbedExperiment(config).run()
        merged = run_parallel(config, workers=1, shards=3)
        assert merged.run.observations == serial.run.observations


class TestProcessPool:
    def test_two_workers_match_serial(self):
        # The one true multi-process case: spawn workers, scatter,
        # gather, and compare against the in-process reference.
        config = small_config(num_probes=40)
        serial = TestbedExperiment(config).run()
        merged = run_parallel(config, workers=2)
        assert merged.workers == 2
        assert merged.run.observations == serial.run.observations
        assert merged.server_query_counts == dict(
            sorted(serial.server_query_counts.items())
        )


def store_digest(result) -> str:
    digest = hashlib.sha256()
    for row in result.run.store.iter_rows():
        digest.update(repr(row).encode())
    return digest.hexdigest()


class TestRunCampaign:
    """The one entry point: it alone picks serial or sharded."""

    def test_default_is_the_serial_experiment(self):
        config = small_config()
        direct = TestbedExperiment(config).run()
        result = run_campaign(config)
        assert isinstance(result, ExperimentResult)
        assert result.run.observations == direct.run.observations
        assert result.server_query_counts == direct.server_query_counts
        assert result.deployment is not None
        assert result.workers == result.shards == 1
        assert result.shard_profiles == []

    def test_a_shard_count_selects_the_sharded_engine(self):
        config = small_config(num_probes=40)
        result = run_campaign(config, shards=4)
        inline = run_parallel(config, workers=1, shards=4)
        pooled = run_campaign(config, workers=2, shards=4)
        for other in (inline, pooled):
            assert isinstance(other, ExperimentResult)
            assert store_digest(other) == store_digest(result)
            assert other.server_query_counts == result.server_query_counts
        assert (result.workers, pooled.workers) == (1, 2)
        for sharded in (result, inline, pooled):
            assert sharded.shards == 4
            assert sharded.deployment is None
            assert len(sharded.shard_profiles) == 4
        # ... and the shard layout is invisible in the output.
        assert store_digest(result) == store_digest(run_campaign(config))

    def test_zero_shards_means_unset(self):
        # The CLI's "--shards 0 = one per worker" passes straight through.
        result = run_campaign(small_config(), shards=0)
        assert result.deployment is not None

    def test_passes_telemetry_and_spill_dir_through(self, tmp_path):
        telemetry = Telemetry.enabled_bundle(
            event_log=tmp_path / "merged.events.jsonl"
        )
        result = run_campaign(
            small_config(), telemetry=telemetry, shards=2,
            spill_dir=tmp_path / "spill",
        )
        telemetry.events.close()
        assert result.telemetry is telemetry
        assert sorted(path.name for path in (tmp_path / "spill").iterdir()) == [
            "shard-0000.events.jsonl", "shard-0001.events.jsonl",
        ]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_campaign(small_config(), workers=0)

    def test_run_combination_goes_through_it(self):
        kwargs = dict(CONFIG_KWARGS, num_probes=40)
        sharded = run_combination("2C", workers=2, **kwargs)
        serial = run_combination("2C", **kwargs)
        assert isinstance(sharded, ExperimentResult)
        assert (sharded.workers, sharded.shards) == (2, 2)
        assert sharded.deployment is None and serial.deployment is not None
        assert store_digest(sharded) == store_digest(serial)


class TestMergedTelemetry:
    def test_registry_matches_serial(self):
        config = small_config()
        serial_telemetry = Telemetry.enabled_bundle()
        TestbedExperiment(config, telemetry=serial_telemetry).run()
        merged_telemetry = Telemetry.enabled_bundle()
        run_parallel(config, workers=1, shards=4, telemetry=merged_telemetry)
        assert (
            merged_telemetry.registry.to_json()
            == serial_telemetry.registry.to_json()
        )

    def test_tracer_receives_normalized_traces(self):
        config = small_config(num_probes=20, duration_s=120.0)
        telemetry = Telemetry.enabled_bundle(event_log=EventLogWriter())
        result = run_parallel(config, workers=1, shards=3, telemetry=telemetry)
        roots = telemetry.tracer.traces()
        assert len(roots) == len(result.observations)
        # ... decoded from the very lines the merged log holds, in its
        # canonical order: (root start, line text).
        lines = [json.dumps(TraceEvent(root).to_record()) for root in roots]
        assert lines == [
            line for line in telemetry.events.lines if '"trace"' in line
        ]
        assert lines == sorted(
            lines, key=lambda line: (json.loads(line)["spans"][0][2], line)
        )

    def test_tracer_bound_holds_after_a_sharded_run(self):
        config = small_config(num_probes=20, duration_s=120.0)
        telemetry = Telemetry.enabled_bundle(max_traces=5)
        result = run_parallel(config, workers=1, shards=3, telemetry=telemetry)
        assert len(telemetry.tracer.traces()) == 5
        assert telemetry.tracer.dropped_traces == len(result.observations) - 5

    def test_event_log_byte_identical_across_layouts(self, tmp_path):
        config = small_config(num_probes=40)
        contents = {}
        for label, kwargs in {
            "w1s1": dict(workers=1, shards=1),
            "w1s4": dict(workers=1, shards=4),
            "w2s4": dict(workers=2, shards=4),
        }.items():
            path = tmp_path / f"{label}.events.jsonl"
            telemetry = Telemetry.enabled_bundle(event_log=path)
            run_parallel(config, telemetry=telemetry, **kwargs)
            telemetry.events.close()
            contents[label] = path.read_bytes()
        assert contents["w1s1"] == contents["w1s4"] == contents["w2s4"]

    def test_merged_log_is_readable_and_complete(self, tmp_path):
        config = small_config(num_probes=30)
        path = tmp_path / "merged.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path)
        result = run_parallel(
            config, workers=1, shards=3, telemetry=telemetry
        )
        telemetry.events.close()
        events = list(read_events(path))
        kinds = [event.kind for event in events]
        assert kinds[0] == "run_meta"
        assert kinds.count("trace") == len(result.observations)
        assert "profile" not in kinds  # wall-clock: never in merged logs
        notes = [event for event in events if event.kind == "note"]
        assert [note.name for note in notes] == [
            "measure.start", "measure.end",
        ]
        assert (
            notes[1].data["observations"] == len(result.observations)
        )
        metrics = [event for event in events if event.kind == "metrics"]
        assert len(metrics) == 1
        observed = metrics[0].metrics["measurement_queries_total"]["samples"]
        assert sum(s["value"] for s in observed) == len(result.observations)

    def test_run_meta_mirrors_config(self, tmp_path):
        config = small_config()
        path = tmp_path / "meta.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=path)
        run_parallel(config, workers=1, shards=2, telemetry=telemetry)
        telemetry.events.close()
        with path.open() as fh:
            fh.readline()  # header
            meta = json.loads(fh.readline())
        assert meta["kind"] == "run_meta"
        assert meta["run"]["seed"] == config.seed
        assert meta["run"]["num_probes"] == config.num_probes
        # worker/shard counts must NOT leak into the canonical log.
        assert "workers" not in meta["run"]
        assert "shards" not in meta["run"]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_parallel(small_config(), workers=0)
