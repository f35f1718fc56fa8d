"""Robustness tests for result persistence and experiment edge cases."""

import json
from collections import Counter

import pytest

from repro.core.experiment import ExperimentConfig, TestbedExperiment
from repro.core.deployment import AuthoritativeSpec
from repro.core.results import load_run, save_run
from repro.atlas.platform import MeasurementRun
from repro.cli import main


GOOD_ROW = {
    "vp_id": 3, "probe_id": 1, "recursive": "10.0.0.1", "impl": "bind",
    "continent": "EU", "t": 0.0, "qname": "m-3-0.probe.x.nl", "site": "FRA",
    "authoritative": "10.0.0.2", "rtt_ms": 12.5, "attempts": 1, "ok": True,
}


def row_with(**change) -> str:
    """``GOOD_ROW`` as a JSON line with ``change`` (``None`` drops a key)."""
    row = {**GOOD_ROW, **change}
    return json.dumps({key: value for key, value in row.items() if value is not None})


def write_run(tmp_path, line: str):
    """A run file whose line 4 is ``line`` (after a good row and a blank)."""
    path = tmp_path / "bad.jsonl"
    header = {"kind": "measurement_run", "domain": "x", "interval_s": 1.0,
              "duration_s": 2.0}
    path.write_text(
        json.dumps(header) + "\n" + json.dumps(GOOD_ROW) + "\n\n" + line + "\n"
    )
    return path


class TestPersistenceRobustness:
    def test_empty_run_roundtrip(self, tmp_path):
        run = MeasurementRun(domain="x.nl", interval_s=120.0, duration_s=0.0)
        path = tmp_path / "empty.jsonl"
        assert save_run(run, path) == 0
        loaded = load_run(path)
        assert loaded.observations == []
        assert loaded.domain == "x.nl"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        header = {"kind": "measurement_run", "domain": "x", "interval_s": 1.0,
                  "duration_s": 2.0}
        path.write_text(json.dumps(header) + "\n\n\n")
        assert load_run(path).observations == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        ("line", "why"),
        [
            (row_with(site=None), "lacks 'site'"),
            ("[1, 2]", "not a JSON object"),
            (row_with(attempts=65536), "greater than maximum"),
            (row_with(continent="XX"), "'XX' is not a valid Continent"),
            (row_with(vp_id="7"), "'vp_id' is str"),
            ('{"vp_id": 1', "not JSON"),
            (row_with(site=5), "'site' is int"),
            (row_with(ok="false"), "'ok' is str"),
        ],
        ids=[
            "missing-key", "list", "overflow", "continent", "str-vp-id", "not-json",
            "int-site", "str-ok",
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, line, why):
        with pytest.raises(ValueError, match=f"bad.jsonl:4: .*{why}"):
            load_run(write_run(tmp_path, line))

    @pytest.mark.parametrize(
        "header",
        [
            '["measurement_run"]',
            '{"kind": "passive_trace"}',
            '{"kind": "measurement_run"}',
            '{"kind": "measurement_run", "domain": "x", "interval_s": "2",'
            ' "duration_s": 4}',
        ],
    )
    def test_a_bad_header_names_file_and_line(self, tmp_path, header):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:1: "):
            load_run(path)

    @pytest.mark.parametrize("name", ["bad.jsonl", "nope.jsonl"])
    def test_analyze_reports_a_bad_or_missing_file(self, tmp_path, capsys, name):
        write_run(tmp_path, "[]")
        path = tmp_path / name
        assert main(["analyze", "--run", str(path), "--sites", "FRA"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("analyze: ")
        assert name in captured.err


class TestExperimentEdgeCases:
    def test_single_authoritative(self):
        config = ExperimentConfig(
            authoritatives=[AuthoritativeSpec("ns1", ("FRA",))],
            num_probes=15,
            duration_s=360.0,
            seed=3,
        )
        result = TestbedExperiment(config).run()
        sites = {obs.site for obs in result.observations if obs.succeeded}
        assert sites == {"FRA"}

    def test_anycast_authoritative_in_testbed(self):
        config = ExperimentConfig(
            authoritatives=[
                AuthoritativeSpec("ns1", ("FRA", "SYD"), suboptimal_rate=0.0)
            ],
            num_probes=25,
            duration_s=360.0,
            seed=4,
        )
        result = TestbedExperiment(config).run()
        sites = {obs.site for obs in result.observations if obs.succeeded}
        # One NS address, two sites: both appear via catchment.
        assert sites == {"FRA", "SYD"}
        addresses = {
            obs.authoritative for obs in result.observations if obs.succeeded
        }
        assert len(addresses) == 1

    def test_zero_duration_produces_no_observations(self):
        config = ExperimentConfig(
            authoritatives=[AuthoritativeSpec("ns1", ("FRA",))],
            num_probes=5,
            duration_s=0.0,
            seed=5,
        )
        result = TestbedExperiment(config).run()
        assert result.observations == []

    def test_short_interval_many_ticks(self):
        config = ExperimentConfig(
            authoritatives=[AuthoritativeSpec("ns1", ("FRA",))],
            num_probes=5,
            interval_s=10.0,
            duration_s=100.0,
            seed=6,
        )
        result = TestbedExperiment(config).run()
        per_vp = Counter(obs.vp_id for obs in result.observations)
        assert all(rows == 10 for rows in per_vp.values())
