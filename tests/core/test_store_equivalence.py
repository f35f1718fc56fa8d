"""Store ↔ legacy equivalence: the columnar data plane changes nothing.

The seed code kept a plain list of ``QueryObservation`` and serialized
it row by row.  These tests pin that a campaign recorded through the
columnar :class:`ObservationStore` — serial or sharded over 4 workers,
with faults active — exports byte-identical run files and event logs,
and identical analysis outputs, to the materialized-list path.
"""

import json

import pytest

from repro.analysis import (
    analyze_preference,
    analyze_probe_all,
    analyze_query_share,
)
from repro.core import (
    COMBINATIONS,
    ExperimentConfig,
    TestbedExperiment,
    run_parallel,
    save_run,
)
from repro.telemetry import Telemetry

CONFIG_KWARGS = dict(num_probes=50, interval_s=120.0, duration_s=360.0, seed=11)


def faulted_config(**overrides):
    kwargs = {**CONFIG_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", scenario="ns-outage", **kwargs)


def legacy_row(obs) -> dict:
    """One observation as the seed's list-backed writer serialized it."""
    return {
        "vp_id": obs.vp_id,
        "probe_id": obs.probe_id,
        "recursive": obs.recursive_address,
        "impl": obs.impl_name,
        "continent": obs.continent.value,
        "t": obs.timestamp,
        "qname": obs.qname,
        "site": obs.site,
        "authoritative": obs.authoritative,
        "rtt_ms": obs.rtt_ms,
        "attempts": obs.attempts,
        "ok": obs.succeeded,
    }


def legacy_save_bytes(run) -> bytes:
    """Serialize a run the way the seed's list-backed writer did."""
    lines = [
        json.dumps(
            {
                "kind": "measurement_run",
                "domain": run.domain,
                "interval_s": run.interval_s,
                "duration_s": run.duration_s,
            }
        )
    ]
    # Materialize every row — the allocation pattern the store replaced.
    for obs in list(run.observations):
        lines.append(json.dumps(legacy_row(obs)))
    return ("\n".join(lines) + "\n").encode()


class TestExportEquivalence:
    def test_store_export_matches_materialized_export(self, tmp_path):
        result = TestbedExperiment(faulted_config()).run()
        path = tmp_path / "run.jsonl"
        save_run(result.run, path)
        assert path.read_bytes() == legacy_save_bytes(result.run)

    def test_four_worker_faulted_run_matches_serial_byte_for_byte(
        self, tmp_path
    ):
        serial_events = tmp_path / "serial.events.jsonl"
        parallel_events = tmp_path / "parallel.events.jsonl"
        config = faulted_config()

        telemetry = Telemetry.enabled_bundle(event_log=str(serial_events))
        serial = run_parallel(config, workers=1, shards=4, telemetry=telemetry)
        telemetry.events.close()

        telemetry = Telemetry.enabled_bundle(event_log=str(parallel_events))
        parallel = run_parallel(
            config, workers=4, shards=4, telemetry=telemetry
        )
        telemetry.events.close()

        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        save_run(serial.run, serial_path)
        save_run(parallel.run, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()
        assert serial_events.read_bytes() == parallel_events.read_bytes()
        # ...and both equal the legacy materialized serialization.
        assert parallel_path.read_bytes() == legacy_save_bytes(parallel.run)


class TestAnalysisEquivalence:
    """Streaming analyses read the store columns directly; the answers
    must match what the list scans produced."""

    @pytest.fixture(scope="class")
    def campaign(self):
        result = TestbedExperiment(faulted_config()).run()
        sites = set(COMBINATIONS["2C"].sites)
        return result.run, sites

    def test_query_share_matches_list_input(self, campaign):
        run, sites = campaign
        from_store = analyze_query_share(run.observations, sites, "2C")
        from_list = analyze_query_share(list(run.observations), sites, "2C")
        assert from_store == from_list

    def test_probe_all_matches_list_input(self, campaign):
        run, sites = campaign
        from_store = analyze_probe_all(
            run.observations, sites, "2C", min_queries=2
        )
        from_list = analyze_probe_all(
            list(run.observations), sites, "2C", min_queries=2
        )
        assert from_store == from_list

    def test_preference_matches_list_input(self, campaign):
        run, sites = campaign
        from_store = analyze_preference(
            run.observations, sites, "2C", min_queries=2
        )
        from_list = analyze_preference(
            list(run.observations), sites, "2C", min_queries=2
        )
        assert _normalized(from_store) == _normalized(from_list)


def _normalized(result):
    """PreferenceResult as plain data with NaN mapped to None.

    A VP with no RTT samples for a site reports ``nan``, and
    ``nan != nan`` would fail the comparison even between two identical
    legacy runs.
    """

    def clean(value):
        return None if value != value else value

    return (
        result.combo_id,
        result.gated_vp_count,
        result.weak_pct,
        result.strong_pct,
        [
            (
                vp.vp_id,
                vp.continent,
                vp.queries,
                vp.share_by_site,
                {site: clean(v) for site, v in vp.median_rtt_by_site.items()},
            )
            for vp in result.vps
        ],
    )
