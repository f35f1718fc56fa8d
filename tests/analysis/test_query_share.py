"""Tests for the Figure 3 analysis (query share vs. RTT)."""

import pytest

from repro.analysis.query_share import analyze_query_share

SITES = {"FRA", "SYD"}


class TestAnalyzeQueryShare:
    def test_shares_sum_to_one(self, make_vp_series):
        observations = []
        for vp in range(10):
            observations.extend(
                make_vp_series(vp, "FS" + "FFFS" * 3, rtts={"FRA": 30, "SYD": 300})
            )
        result = analyze_query_share(observations, SITES, combo_id="2C")
        assert sum(s.query_share for s in result.sites) == pytest.approx(1.0)

    def test_fastest_site_wins_true(self, make_vp_series):
        observations = []
        for vp in range(10):
            observations.extend(
                make_vp_series(vp, "FS" + "FFFS" * 3, rtts={"FRA": 30, "SYD": 300})
            )
        result = analyze_query_share(observations, SITES)
        assert result.fastest_site_wins
        ranked = result.ranked_by_share()
        assert ranked[0].site == "FRA"
        assert ranked[0].query_share == pytest.approx(0.75)

    def test_median_rtt_reported(self, make_vp_series):
        observations = make_vp_series(
            0, "FS" + "FS" * 6, rtts={"FRA": 30, "SYD": 300}
        )
        result = analyze_query_share(observations, SITES)
        by_site = {s.site: s for s in result.sites}
        assert by_site["FRA"].median_rtt_ms == pytest.approx(30)
        assert by_site["SYD"].median_rtt_ms == pytest.approx(300)

    def test_without_hot_cache_filter(self, make_vp_series):
        observations = make_vp_series(0, "F" * 10)
        result = analyze_query_share(observations, SITES, hot_cache_only=False)
        by_site = {s.site: s for s in result.sites}
        assert by_site["FRA"].query_share == 1.0
        assert by_site["SYD"].queries == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze_query_share([], SITES)

    def test_failed_observations_ignored(self, make_obs):
        observations = [make_obs(vp_id=0, succeeded=False, timestamp=float(i)) for i in range(5)]
        with pytest.raises(ValueError):
            analyze_query_share(observations, SITES)
