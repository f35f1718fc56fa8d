"""Cost-ledger semantics: counting, phases, merge determinism, export.

The ledger's one hard promise: counts are pure functions of the seeded
simulation, so a serial run and any K-worker run over the same shard
partition export the *same JSON bytes*.  These tests pin the promise at
every layer — unit merge arithmetic, the event-log round trip, and an
end-to-end sharded campaign.
"""

import json

import pytest

from repro.core.experiment import ExperimentConfig, TestbedExperiment
from repro.core.parallel import run_parallel
from repro.telemetry import (
    COSTS_SCHEMA,
    CostLedger,
    CostsEvent,
    NULL_COSTS,
    NullRegistry,
    NullTracer,
    RunProfiler,
    Telemetry,
)
from repro.telemetry.events import _event_from_record

CONFIG_KWARGS = dict(
    num_probes=30, interval_s=120.0, duration_s=240.0, seed=11
)


def small_config(**overrides) -> ExperimentConfig:
    kwargs = {**CONFIG_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", **kwargs)


def costs_telemetry() -> Telemetry:
    return Telemetry(
        NullRegistry(), NullTracer(), RunProfiler(), costs=CostLedger()
    )


class TestCounting:
    def test_count_accumulates(self):
        ledger = CostLedger()
        ledger.count("decode")
        ledger.count("decode", 4)
        assert ledger.totals()["decode"] == 5

    def test_default_phase_is_run(self):
        ledger = CostLedger()
        ledger.count("encode")
        assert ledger.phases["run"]["encode"] == 1

    def test_phase_scopes_counts(self):
        ledger = CostLedger()
        with ledger.phase("experiment.measure"):
            ledger.count("decode")
        ledger.count("decode")
        assert ledger.phases["experiment.measure"]["decode"] == 1
        assert ledger.phases["run"]["decode"] == 1
        assert ledger.totals()["decode"] == 2

    def test_phases_nest_and_restore(self):
        ledger = CostLedger()
        with ledger.phase("outer"):
            with ledger.phase("inner"):
                ledger.count("rng_draw")
            ledger.count("rng_draw")
        assert ledger.phases["inner"] == {"rng_draw": 1}
        assert ledger.phases["outer"] == {"rng_draw": 1}

    def test_queries_property(self):
        ledger = CostLedger()
        assert ledger.queries == 0
        ledger.count("query", 7)
        assert ledger.queries == 7


class TestMerge:
    def test_merge_ledger_adds_counters(self):
        a, b = CostLedger(), CostLedger()
        a.count("decode", 2)
        with b.phase("experiment.measure"):
            b.count("decode", 3)
        a.merge(b)
        assert a.totals()["decode"] == 5
        assert a.phases["experiment.measure"]["decode"] == 3

    def test_merge_accepts_as_dict_export(self):
        a, b = CostLedger(), CostLedger()
        b.count("encode", 2)
        b.count("query")
        a.merge(b.as_dict())
        assert a.totals() == {"encode": 2, "query": 1}

    def test_merge_order_invariant(self):
        shards = []
        for index in range(3):
            shard = CostLedger()
            with shard.phase("experiment.measure"):
                shard.count("decode", index + 1)
                shard.count("query", index)
            shards.append(shard)
        forward, backward = CostLedger(), CostLedger()
        for shard in shards:
            forward.merge(shard)
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.to_json() == backward.to_json()

    def test_merge_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            CostLedger().merge(42)

    def test_counting_continues_after_merge(self):
        a, b = CostLedger(), CostLedger()
        b.count("decode")
        a.merge(b)
        a.count("decode")
        assert a.totals()["decode"] == 2


class TestExport:
    def test_as_dict_shape(self):
        ledger = CostLedger()
        with ledger.phase("experiment.measure"):
            ledger.count("query", 2)
            ledger.count("decode", 4)
        data = ledger.as_dict()
        assert data["schema"] == COSTS_SCHEMA
        assert data["queries"] == 2
        assert data["totals"] == {"decode": 4, "query": 2}
        assert data["phases"] == {
            "experiment.measure": {"decode": 4, "query": 2}
        }

    def test_empty_phases_omitted(self):
        ledger = CostLedger()
        with ledger.phase("experiment.deploy"):
            pass
        assert ledger.as_dict()["phases"] == {}

    def test_to_json_is_canonical(self):
        a, b = CostLedger(), CostLedger()
        a.count("decode")
        a.count("encode")
        b.count("encode")
        b.count("decode")
        assert a.to_json() == b.to_json()

    def test_write_and_from_dict_round_trip(self, tmp_path):
        ledger = CostLedger()
        with ledger.phase("experiment.measure"):
            ledger.count("query", 3)
            ledger.count("rng_draw", 6)
        path = ledger.write(tmp_path / "costs.json")
        reloaded = CostLedger.from_dict(json.loads(path.read_text()))
        assert reloaded.as_dict() == ledger.as_dict()

    def test_render_lists_counters_and_per_query(self):
        ledger = CostLedger()
        ledger.count("query", 2)
        ledger.count("decode", 4)
        text = ledger.render()
        assert "2 queries" in text
        assert "decode" in text
        assert "2.000" in text

    def test_render_shows_phase_breakdown(self):
        ledger = CostLedger()
        with ledger.phase("experiment.deploy"):
            ledger.count("encode", 2)
        with ledger.phase("experiment.measure"):
            ledger.count("decode", 3)
        assert "Per-phase totals" in ledger.render()

    def test_costs_event_round_trip(self):
        ledger = CostLedger()
        ledger.count("query", 5)
        (event,) = ledger.to_events()
        assert isinstance(event, CostsEvent)
        revived = _event_from_record(
            json.loads(json.dumps(event.to_record()))
        )
        assert isinstance(revived, CostsEvent)
        assert CostLedger.from_dict(revived.costs).queries == 5


class TestNullLedger:
    def test_disabled_and_inert(self):
        with NULL_COSTS.phase("experiment.measure"):
            pass
        assert not NULL_COSTS.enabled
        assert NULL_COSTS.to_events() == []


class TestCampaignLedger:
    def test_costs_do_not_flip_telemetry_enabled(self):
        telemetry = costs_telemetry()
        assert telemetry.costs.enabled
        assert not telemetry.enabled  # the ledger is not a recording pillar

    def test_serial_campaign_populates_ledger(self):
        telemetry = costs_telemetry()
        result = TestbedExperiment(
            small_config(), telemetry=telemetry
        ).run()
        ledger = telemetry.costs
        assert ledger.queries == len(result.run.observations)
        totals = ledger.totals()
        for counter in (
            "decode", "encode", "rng_draw", "cache_lookup",
            "template_hit", "timer_event",
        ):
            assert totals.get(counter, 0) > 0, counter
        assert result.costs == ledger.as_dict()
        # campaign counts land in the measure phase, not "run"
        assert "experiment.measure" in ledger.phases

    def test_identical_runs_export_identical_bytes(self):
        exports = []
        for _ in range(2):
            telemetry = costs_telemetry()
            TestbedExperiment(small_config(), telemetry=telemetry).run()
            exports.append(telemetry.costs.to_json(indent=2))
        assert exports[0] == exports[1]

    def test_ledger_does_not_perturb_observations(self):
        plain = TestbedExperiment(small_config()).run()
        telemetry = costs_telemetry()
        costed = TestbedExperiment(small_config(), telemetry=telemetry).run()
        assert costed.run.observations == plain.run.observations
        assert costed.server_query_counts == plain.server_query_counts
        assert telemetry.costs.queries == len(costed.run.observations)

    def test_telemetry_on_runs_the_code_telemetry_off_runs(self):
        """``enabled`` gates recording, never dispatch: the full bundle
        counts the operations the ledger-only run counts, phase by phase."""
        ledger_only = costs_telemetry()
        observed = Telemetry.enabled_bundle(costs=True)
        assert observed.enabled and not ledger_only.enabled
        off = TestbedExperiment(small_config(), telemetry=ledger_only).run()
        on = TestbedExperiment(small_config(), telemetry=observed).run()
        assert on.run.observations == off.run.observations
        assert on.server_query_counts == off.server_query_counts
        assert set(observed.costs.phases) == set(ledger_only.costs.phases)
        for phase, counts in ledger_only.costs.phases.items():
            for counter in (
                "template_hit", "template_miss", "decode", "encode",
                "rng_draw", "query",
            ):
                assert observed.costs.phases[phase].get(counter, 0) == (
                    counts.get(counter, 0)
                ), (phase, counter)
        assert ledger_only.costs.totals()["template_hit"] > 0

    def test_fault_campaign_counts_fault_evals(self):
        telemetry = costs_telemetry()
        TestbedExperiment(
            small_config(scenario="ns-outage"), telemetry=telemetry
        ).run()
        totals = telemetry.costs.totals()
        assert totals.get("fault_eval", 0) > 0


class TestParallelLedger:
    def test_worker_count_cannot_move_the_ledger(self):
        """Serial vs 2 workers at a fixed shard count: same JSON bytes."""
        exports = []
        results = []
        for workers in (1, 2):
            telemetry = costs_telemetry()
            result = run_parallel(
                small_config(), workers=workers, shards=2,
                telemetry=telemetry,
            )
            exports.append(telemetry.costs.to_json(indent=2))
            results.append(result)
        assert exports[0] == exports[1]
        assert results[0].costs == results[1].costs
        assert results[0].costs  # non-empty: the merge actually ran
