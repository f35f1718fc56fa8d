"""Store ↔ legacy equivalence: the columnar data plane changes nothing.

The seed code kept a plain list of ``QueryObservation`` and serialized
it row by row.  These tests pin that a campaign recorded through the
columnar :class:`ObservationStore` — serial or sharded over 4 workers,
with faults active — exports byte-identical run files and event logs,
and identical analysis outputs, to the materialized-list path.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    aggregate,
    analyze_preference,
    analyze_probe_all,
    analyze_query_share,
    analyze_rtt_sensitivity,
    breakdown_by_implementation,
    client_side_shares,
    fraction_to_site,
    table2_rows,
    vp_preferences,
)
from repro.cli import main
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


#: Every reader of the per-VP aggregate, as (name, call on observations).
AGGREGATE_READERS = [
    ("probe_all", lambda obs, sites: analyze_probe_all(obs, sites, "2C", min_queries=2)),
    ("query_share", lambda obs, sites: analyze_query_share(obs, sites, "2C")),
    ("query_share_all", lambda obs, sites: analyze_query_share(
        obs, sites, "2C", hot_cache_only=False)),
    ("preference", lambda obs, sites: analyze_preference(obs, sites, "2C", min_queries=2)),
    ("vp_preferences", lambda obs, sites: vp_preferences(obs, sites, min_queries=2)),
    ("table2", lambda obs, sites: table2_rows(obs, sites, min_queries=2)),
    ("rtt_sensitivity", lambda obs, sites: analyze_rtt_sensitivity(
        obs, sites, "2C", min_queries=2)),
    ("implementation", lambda obs, sites: breakdown_by_implementation(
        obs, sites, min_queries=2)),
    ("fraction_to_site", lambda obs, sites: [fraction_to_site(obs, s) for s in sorted(sites)]),
    ("client_side", lambda obs, sites: client_side_shares(obs, min_queries=2)),
]


class TestAnalysisEquivalence:
    """The analyses read one per-VP aggregate of the store's columns;
    the answers must not depend on the input's form or row order."""

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

    @settings(max_examples=15, deadline=None)
    @given(shuffle=st.randoms(use_true_random=False))
    def test_every_reader_ignores_input_form_and_row_order(self, campaign, shuffle):
        run, sites = campaign
        rows = list(run.observations)
        shuffled = list(rows)
        shuffle.shuffle(shuffled)
        for name, reader in AGGREGATE_READERS:
            # repr: a site without RTT samples reports nan, and nan != nan.
            from_store = repr(reader(run.observations, sites))
            assert repr(reader(rows, sites)) == from_store, name
            assert repr(reader(shuffled, sites)) == from_store, name

    def test_the_cli_analyses_build_the_aggregate_once(self, capsys, monkeypatch):
        built = []
        build = aggregate.build_aggregate

        def counted(store):
            built.append(store)
            return build(store)

        monkeypatch.setattr(aggregate, "build_aggregate", counted)
        assert main(["run", "--combo", "2C", "--probes", "20", "--duration", "10"]) == 0
        assert "Table 2" in capsys.readouterr().out
        assert len(built) == 1
        store = built[0]
        assert "_aggregate" not in store.__getstate__()

        sites = set(COMBINATIONS["2C"].sites)
        before = analyze_query_share(store.rows, sites)
        store.sort_canonical()  # a permutation keeps the memo
        assert analyze_query_share(store.rows, sites) == before
        assert len(built) == 1
        store.append_observation(store.rows[0])
        analyze_query_share(store.rows, sites)
        assert len(built) == 2


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
