"""Full-stack determinism on the event kernel.

The tentpole invariant of the engine: with every tick, delivery, and
retry timeout a heap event, the serial run and the K-worker sharded run
produce byte-identical merged event logs and cost-ledger exports —
faults active, retries firing at true virtual-time offsets.
"""

import hashlib

from repro.core import ExperimentConfig, TestbedExperiment, run_parallel
from repro.telemetry import Telemetry

#: ~2 ticks over ~35 VPs with an outage window keeps each run < 10 s.
CONFIG_KWARGS = dict(
    num_probes=24,
    interval_s=120.0,
    duration_s=240.0,
    seed=11,
    scenario="ns-outage",
)

#: fault-free ``kernel_config(scenario=None, seed=FAULT_FREE_SEED)`` rows
#: in canonical order, re-recorded when the per-entity streams became
#: counter-based (PR 24).  The seed is the first from the file's own 11
#: upwards whose 50-row sample contains a retried query, which the
#: pinned test needs for its server-count check to mean something.
FAULT_FREE_SEED = 13
FAULT_FREE_SHA256 = (
    "96145631de2f4a2c810bcd0a43ba0452eea05b52592aea8f41acbd1e56ee5c0d"
)


def kernel_config(**overrides):
    kwargs = {**CONFIG_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", **kwargs)


class TestKernelLayoutInvariance:
    def test_merged_log_byte_identical_across_shard_counts(self, tmp_path):
        logs = {}
        for label, kwargs in {
            "w1s1": dict(workers=1, shards=1),
            "w1s4": dict(workers=1, shards=4),
        }.items():
            path = tmp_path / f"{label}.events.jsonl"
            telemetry = Telemetry.enabled_bundle(event_log=path)
            run_parallel(kernel_config(), telemetry=telemetry, **kwargs)
            telemetry.events.close()
            logs[label] = path.read_bytes()
        assert logs["w1s1"] == logs["w1s4"]

    def test_four_workers_match_serial_processes(self, tmp_path):
        # The acceptance case: true spawned workers, kernel on, faults
        # active — merged log and ledger byte-identical to serial.
        # Shard count is held at 4 on both sides: per-shard counters
        # (tick timers, template warm-up) are per-shard-layout by
        # construction, the same contract the CI cmp gate asserts.
        logs = {}
        costs = {}
        for label, workers in {"serial": 1, "w4": 4}.items():
            path = tmp_path / f"{label}.events.jsonl"
            telemetry = Telemetry.enabled_bundle(event_log=path, costs=True)
            run_parallel(
                kernel_config(), workers=workers, shards=4,
                telemetry=telemetry,
            )
            telemetry.events.close()
            logs[label] = path.read_bytes()
            costs[label] = telemetry.costs.to_json()
        assert logs["serial"] == logs["w4"]
        assert costs["serial"] == costs["w4"]
        # Sanity: the kernel actually ran (events were counted).
        assert '"sched_event"' in costs["serial"]

    def test_observations_match_across_shard_counts(self):
        baseline = run_parallel(kernel_config(), workers=1, shards=1)
        for shards in (2, 5):
            result = run_parallel(kernel_config(), workers=1, shards=shards)
            assert result.run.observations == baseline.run.observations
            assert (
                result.server_query_counts == baseline.server_query_counts
            )


class TestKernelSemantics:
    def test_fault_free_campaign_is_pinned(self):
        result = TestbedExperiment(
            kernel_config(scenario=None, seed=FAULT_FREE_SEED)
        ).run()
        store = result.run.store
        digest = hashlib.sha256()
        for row in store.iter_rows():
            digest.update(repr(row).encode())
        assert len(store) == 2 * result.run.vp_count
        # A lost exchange never reaches a server and the zone is one
        # hop away, so the servers saw exactly one query per answer.
        observations = result.run.observations
        assert any(obs.attempts > 1 for obs in observations)
        assert sum(result.server_query_counts.values()) == sum(
            obs.succeeded for obs in observations
        )
        assert digest.hexdigest() == FAULT_FREE_SHA256

    def test_serial_run_equals_sharded_merge_without_sorting(self):
        # ``measure`` hands its store back in canonical order, so the
        # plain serial experiment and the 4-shard merge are equal as
        # they come — faults active, neither side re-sorted.
        serial = TestbedExperiment(kernel_config()).run()
        sharded = run_parallel(kernel_config(), workers=1, shards=4)
        assert serial.run.observations == sharded.run.observations
        assert serial.server_query_counts == sharded.server_query_counts

    def test_kernel_repeats_identically(self):
        first = TestbedExperiment(kernel_config()).run()
        second = TestbedExperiment(kernel_config()).run()
        assert first.run.observations == second.run.observations

    def test_clock_ends_at_campaign_end(self):
        # The drain finishes every in-flight retry, then the clock is
        # brought to the nominal campaign end.
        for scenario in (None, "ns-outage"):
            experiment = TestbedExperiment(kernel_config(scenario=scenario))
            experiment.run()
            assert experiment.network.clock.now == CONFIG_KWARGS["duration_s"]
