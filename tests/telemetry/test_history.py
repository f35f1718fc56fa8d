"""Bench-trajectory semantics: append-only entries, trends, attribution."""

import json

import pytest

from repro.telemetry.history import (
    HISTORY_SCHEMA,
    HistoryError,
    append_entry,
    attribute_regressions,
    git_commit,
    load_history,
    parse_suite_output,
    render_history,
)

#: BENCHMARK.json in miniature: same keys, two workloads, a few metrics.
SPEC = {
    "workloads": [{"name": "campaign_cold"}, {"name": "serve_mixed"}],
    "end_to_end": [
        {"name": "us_per_query", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "dns.codec.decode_us", "unit": "us", "better": "lower"},
        {"name": "dns.server.fast_path_us", "unit": "us", "better": "lower"},
        {"name": "dns.server.template_hit_ratio", "unit": "ratio", "better": "higher"},
    ],
}


def suite_result(us_per_query: float = 60.0, correct: bool = True) -> dict:
    """What a full suite run prints as its last line."""
    return {
        "correct": correct,
        "end_to_end": {
            "campaign_cold": {"us_per_query": us_per_query, "peak_rss_mib": 85.5},
            "serve_mixed": {"us_per_query": 110.0, "peak_rss_mib": 31.0},
        },
        "per_layer": {
            workload: {
                "dns.codec.decode_us": 4.25,
                "dns.server.fast_path_us": 2.5,
                "dns.server.template_hit_ratio": 0.8,
            }
            for workload in ("campaign_cold", "serve_mixed")
        },
    }


def retired_entry(directory, seq: int):
    """A file as the retired sidecar harness wrote them (schema /1)."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{seq:04d}-abc123def456.json"
    path.write_text(json.dumps({
        "schema": "repro-bench-history/1", "seq": seq, "git_commit": "abc123def456",
        "runs": {"2C@120s": {"phases": {"experiment.measure": {"seconds": 0.5}}}},
    }))
    return path


class TestEntries:
    def test_entry_wraps_sidecar(self, tmp_path):
        """An entry is the suite's result line, verbatim, under four header keys."""
        result = suite_result()
        entry = json.loads(append_entry(tmp_path, result, "abc123def456").read_text())
        assert entry["schema"] == HISTORY_SCHEMA == "repro-bench-history/2"
        assert entry["seq"] == 1
        assert entry["git_commit"] == "abc123def456"
        assert entry["recorded_at"].endswith("Z")
        assert {key: entry[key] for key in result} == result

    def test_append_assigns_increasing_sequence(self, tmp_path):
        retired_entry(tmp_path, 7)
        first = append_entry(tmp_path, suite_result(), "abc123")
        second = append_entry(tmp_path, suite_result(), "abc123")
        assert first.name.startswith("0008-")
        assert second.name.startswith("0009-")

    def test_append_truncates_commit_in_filename(self, tmp_path):
        path = append_entry(tmp_path, suite_result(), "a" * 40)
        assert path.name == f"0001-{'a' * 12}.json"
        assert json.loads(path.read_text())["git_commit"] == "a" * 40

    def test_append_without_commit_uses_unknown(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # not a git checkout
        assert git_commit() == "unknown"
        path = append_entry(tmp_path, suite_result(), git_commit())
        assert path.name == "0001-unknown.json"

    def test_append_never_rewrites_existing_entries(self, tmp_path):
        retired = retired_entry(tmp_path, 1)
        first = append_entry(tmp_path, suite_result(60.0), "abc123")
        before = retired.read_text(), first.read_text()
        append_entry(tmp_path, suite_result(90.0), "abc123")
        assert (retired.read_text(), first.read_text()) == before
        assert len(load_history(tmp_path)[0]) == 2


class TestRecording:
    def test_result_is_the_last_line_after_the_readable_ones(self):
        text = (
            "  campaign_cold     us_per_query   60.0000 us\n"
            "  input set 1: sha256 ab12  ops 900  sim_failed 0\n"
            + json.dumps(suite_result()) + "\n\n"
        )
        assert parse_suite_output(text) == suite_result()

    @pytest.mark.parametrize(
        "last_line",
        [
            json.dumps(suite_result(correct=False)),
            json.dumps({"correct": True, "end_to_end": {}}),
            json.dumps({"correct": True, "per_layer": {}}),
            json.dumps({"correct": True, "end_to_end": [], "per_layer": {}}),
            json.dumps({"smoke": "ok"}),
            json.dumps([1, 2]),
            "FAILED: campaign_cold outputs differ",
            "",
        ],
    )
    def test_refuses_what_is_not_a_correct_full_run(self, last_line):
        with pytest.raises(HistoryError):
            parse_suite_output("  campaign_cold  60.0000 us\n" + last_line + "\n")


class TestLoading:
    def test_load_orders_by_sequence(self, tmp_path):
        for us in (60.0, 61.0, 62.0):
            append_entry(tmp_path, suite_result(us), "abc123")
        entries, retired = load_history(tmp_path)
        assert [entry["seq"] for entry in entries] == [1, 2, 3]
        assert retired == 0

    def test_load_skips_foreign_files(self, tmp_path):
        append_entry(tmp_path, suite_result(), "abc123")
        (tmp_path / "notes.json").write_text("{}")
        (tmp_path / "README.md").write_text("not an entry")
        assert len(load_history(tmp_path)[0]) == 1

    def test_retired_schema_is_counted_not_loaded(self, tmp_path):
        for seq in (1, 2):
            retired_entry(tmp_path, seq)
        append_entry(tmp_path, suite_result(), "abc123")
        entries, retired = load_history(tmp_path)
        assert [entry["seq"] for entry in entries] == [3]
        assert retired == 2
        text = render_history(entries, SPEC, retired=retired)
        assert "1 entries (2 earlier entries in the retired sidecar schema" in text
        assert "experiment.measure" not in text

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(HistoryError):
            load_history(tmp_path / "absent")

    def test_wrong_schema_raises(self, tmp_path):
        path = append_entry(tmp_path, suite_result(), "abc123")
        entry = json.loads(path.read_text())
        entry["schema"] = "something/else"
        path.write_text(json.dumps(entry))
        with pytest.raises(HistoryError):
            load_history(tmp_path)

    def test_unparseable_entry_raises(self, tmp_path):
        append_entry(tmp_path, suite_result(), "abc123")
        (tmp_path / "0002-unknown.json").write_text("{not json")
        with pytest.raises(HistoryError):
            load_history(tmp_path)


def history_of(tmp_path, *us_per_query):
    for index, us in enumerate(us_per_query):
        append_entry(tmp_path, suite_result(us), f"c{index}ffee")
    return load_history(tmp_path)[0]


class TestTrends:
    def test_phase_series_tracks_each_entry(self, tmp_path):
        """One row per workload and metric, one cell per entry."""
        text = render_history(history_of(tmp_path, 60.0, 75.0), SPEC)
        (row,) = [
            line for line in text.splitlines()
            if line.startswith("campaign_cold us_per_query")
        ]
        assert row.split()[2:] == ["us", "60", "75", "(1.25x)"]
        assert sum("peak_rss_mib" in line for line in text.splitlines()) == 2

    def test_phase_series_prefix_filter(self, tmp_path):
        """``--metrics`` prefixes select rows, per-layer ones included."""
        entries = history_of(tmp_path, 60.0)
        default = render_history(entries, SPEC)
        assert "dns.server." not in default and "us_per_query" in default
        text = render_history(entries, SPEC, metrics=["dns.server."])
        rows = [line.split()[:3] for line in text.splitlines() if " dns." in line]
        assert rows == [
            [workload, metric, unit]
            for workload in ("campaign_cold", "serve_mixed")
            for metric, unit in (
                ("dns.server.fast_path_us", "us"),
                ("dns.server.template_hit_ratio", "ratio"),
            )
        ]
        assert "us_per_query" not in text.split("Regression attribution")[0]

    def test_attribution_names_the_entry_that_moved(self, tmp_path):
        # bound 0.25: 60 -> 61 is inside it, 60 -> 80 is +33 %
        entries = history_of(tmp_path, 60.0, 60.0, 80.0)
        (finding,) = attribute_regressions(entries, SPEC)
        assert "entry #3 (c2ffee)" in finding
        assert "campaign_cold us_per_query 60 -> 80 us" in finding
        assert "33% worse, bound 25%" in finding

    def test_steady_history_attributes_nothing(self, tmp_path):
        assert attribute_regressions(history_of(tmp_path, 60.0, 70.0, 60.0), SPEC) == []

    def test_attribution_follows_the_declared_direction(self, tmp_path):
        spec = {**SPEC, "end_to_end": [
            {"name": "us_per_query", "unit": "qps", "better": "higher", "bound": 0.25},
        ]}
        (finding,) = attribute_regressions(history_of(tmp_path, 60.0, 80.0, 40.0), spec)
        assert "entry #3" in finding and "50% worse" in finding

    def test_render_trend_and_attribution(self, tmp_path):
        text = render_history(history_of(tmp_path, 50.0, 120.0), SPEC)
        assert "Bench trajectory — 2 entries ===" in text
        assert "(2.40x)" in text
        assert "Regression attribution" in text
        assert "entry #2 (c1ffee): campaign_cold us_per_query" in text

    def test_render_empty_history(self):
        assert render_history([], SPEC) == "bench history: no entries"
        assert "\n" not in render_history([], SPEC, retired=7)

    def test_render_last_window(self, tmp_path):
        text = render_history(history_of(tmp_path, 60.0, 60.0, 60.0, 60.0), SPEC, last=2)
        assert "#3" in text and "#4" in text
        assert "#1" not in text
        assert "4 entries" in text
