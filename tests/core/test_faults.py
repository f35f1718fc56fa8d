"""Fault scenarios through the whole stack: experiment, parallel, logs.

The differential determinism claim lives here: a fault-heavy campaign
produces byte-identical merged event logs for every worker/shard
layout, and repeating any run reproduces it exactly.
"""

from collections import Counter

from repro.core import ExperimentConfig, TestbedExperiment, run_parallel
from repro.netsim.faults import NsOutage, Scenario, builtin_scenario
from repro.telemetry import Telemetry, read_events

#: short campaign, outage over the middle third — enough ticks for the
#: selectors to abandon and re-earn.
FAULT_KWARGS = dict(num_probes=40, interval_s=2.0, duration_s=30.0, seed=1)


def fault_config(scenario="ns-outage", **overrides):
    kwargs = {**FAULT_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", scenario=scenario, **kwargs)


class TestExperimentIntegration:
    def test_outage_abandons_and_recovers(self):
        experiment = TestbedExperiment(fault_config())
        result = experiment.run()
        dead = result.addresses[0]
        thirds = [Counter(), Counter(), Counter()]
        for obs in result.observations:
            third = min(2, int(obs.timestamp // 10.0))
            if obs.succeeded:
                thirds[third][obs.authoritative] += 1
        before = thirds[0][dead] / max(1, sum(thirds[0].values()))
        during = thirds[1][dead] / max(1, sum(thirds[1].values()))
        after = thirds[2][dead] / max(1, sum(thirds[2].values()))
        assert before > 0.2
        assert during < 0.05
        assert after > 0.05

    def test_zone_survives_on_remaining_ns(self):
        result = TestbedExperiment(fault_config()).run()
        failed = sum(1 for obs in result.observations if not obs.succeeded)
        assert failed / len(result.observations) < 0.1

    def test_plan_compiled_against_deployment(self):
        experiment = TestbedExperiment(fault_config())
        result = experiment.run()
        assert experiment.fault_plan is not None
        assert experiment.fault_plan.addresses() == [result.addresses[0]]

    def test_scenario_objects_and_names_agree(self):
        named = TestbedExperiment(fault_config("ns-outage")).run()
        explicit = TestbedExperiment(
            fault_config(builtin_scenario("ns-outage", FAULT_KWARGS["duration_s"]))
        ).run()
        assert named.run.observations == explicit.run.observations

    def test_scenario_file_path_accepted(self, tmp_path):
        scenario = builtin_scenario("ns-outage", FAULT_KWARGS["duration_s"])
        path = scenario.save(tmp_path / "outage.json")
        from_file = TestbedExperiment(fault_config(str(path))).run()
        named = TestbedExperiment(fault_config("ns-outage")).run()
        assert from_file.run.observations == named.run.observations

    def test_repeat_run_identical(self):
        a = TestbedExperiment(fault_config("ns-flap")).run()
        b = TestbedExperiment(fault_config("ns-flap")).run()
        assert a.run.observations == b.run.observations
        assert a.server_query_counts == b.server_query_counts

    def test_no_scenario_unchanged_by_engine(self):
        # The acceptance bar for "zero-cost when inactive": a scenario
        # whose windows never open must reproduce the no-scenario run.
        plain = TestbedExperiment(fault_config(None)).run()
        idle = TestbedExperiment(
            fault_config(
                Scenario(name="idle", events=(NsOutage("ns1", 1e8, 1e9),))
            )
        ).run()
        assert plain.run.observations == idle.run.observations

    def test_fault_notes_in_event_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=str(path))
        TestbedExperiment(fault_config(), telemetry=telemetry).run()
        telemetry.events.close()
        events = list(read_events(path))
        notes = [
            event
            for event in events
            if getattr(event, "name", "").startswith("fault.")
        ]
        assert [(n.name, n.at) for n in notes] == [
            ("fault.start", 10.0),
            ("fault.end", 20.0),
        ]
        assert notes[0].data["fault"] == "ns_outage"
        meta = next(e for e in events if type(e).__name__ == "RunMeta")
        assert meta.run["scenario"] == "ns-outage"


class TestParallelDeterminism:
    def test_event_log_byte_identical_across_layouts(self, tmp_path):
        # Inline layouts (1, 3, 5 shards): the merged fault-heavy log
        # must be byte-identical.  True multi-process equivalence is
        # exercised by the CI determinism job at larger scale.
        logs = {}
        for label, shards in (("s1", 1), ("s3", 3), ("s5", 5)):
            path = tmp_path / f"{label}.jsonl"
            telemetry = Telemetry.enabled_bundle(event_log=str(path))
            run_parallel(
                fault_config(), workers=1, shards=shards, telemetry=telemetry
            )
            telemetry.events.close()
            logs[label] = path.read_bytes()
        assert logs["s1"] == logs["s3"] == logs["s5"]

    def test_parallel_matches_serial_observations(self):
        serial = TestbedExperiment(fault_config()).run()
        merged = run_parallel(fault_config(), workers=1, shards=4)
        assert merged.run.observations == serial.run.observations
        assert merged.server_query_counts == dict(
            sorted(serial.server_query_counts.items())
        )

    def test_fault_notes_once_in_merged_log(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=str(path))
        run_parallel(fault_config(), workers=1, shards=3, telemetry=telemetry)
        telemetry.events.close()
        notes = [
            event
            for event in read_events(path)
            if getattr(event, "name", "").startswith("fault.")
        ]
        # 3 shards each emitted the timeline; the merge keeps one copy.
        assert [(n.name, n.at) for n in notes] == [
            ("fault.start", 10.0),
            ("fault.end", 20.0),
        ]
