"""Tests for the Figure 2 analysis (queries to probe all authoritatives)."""

import pytest

from repro.analysis.probe_all import analyze_probe_all

SITES = {"FRA", "SYD"}


class TestAnalyzeProbeAll:
    def test_all_vps_probe_all(self, make_vp_series):
        observations = []
        for vp in range(20):
            observations.extend(make_vp_series(vp, "FS" + "F" * 10))
        result = analyze_probe_all(observations, SITES, combo_id="2X")
        assert result.probed_all_pct == 100.0
        assert result.queries_to_all.median == 1.0
        assert result.vp_count == 20

    def test_partial_probing(self, make_vp_series):
        observations = []
        for vp in range(10):
            observations.extend(make_vp_series(vp, "FS" + "F" * 10))
        for vp in range(10, 20):
            observations.extend(make_vp_series(vp, "F" * 12))
        result = analyze_probe_all(observations, SITES)
        assert result.probed_all_pct == 50.0

    def test_min_queries_filter(self, make_vp_series):
        observations = make_vp_series(0, "FS")  # only 2 queries
        observations += make_vp_series(1, "FS" + "F" * 10)
        result = analyze_probe_all(observations, SITES, min_queries=10)
        assert result.vp_count == 1

    def test_no_eligible_vps_rejected(self, make_vp_series):
        with pytest.raises(ValueError):
            analyze_probe_all(make_vp_series(0, "FS"), SITES, min_queries=10)
