"""Tests for the Figure 4 / Table 2 analysis (per-recursive preference)."""

import pytest

from repro.analysis.preference import (
    analyze_preference,
    table2_rows,
    vp_preferences,
)
from repro.netsim.geo import Continent

SITES = {"FRA", "SYD"}
RTTS_GAP = {"FRA": 30.0, "SYD": 300.0}     # >50 ms difference
RTTS_CLOSE = {"FRA": 30.0, "SYD": 60.0}    # small difference


class TestVpPreferences:
    def test_shares_computed(self, make_vp_series):
        observations = make_vp_series(0, "FFFS" * 3, rtts=RTTS_GAP)
        vps = vp_preferences(observations, SITES)
        assert len(vps) == 1
        assert vps[0].share_by_site["FRA"] == pytest.approx(0.75)
        assert vps[0].share_by_site["SYD"] == pytest.approx(0.25)

    def test_preferred_site(self, make_vp_series):
        observations = make_vp_series(0, "SSSF" * 3, rtts=RTTS_GAP)
        vps = vp_preferences(observations, SITES)
        assert vps[0].preferred_site == "SYD"
        assert vps[0].top_share == pytest.approx(0.75)

    def test_rtt_difference(self, make_vp_series):
        observations = make_vp_series(0, "FS" * 6, rtts=RTTS_GAP)
        vps = vp_preferences(observations, SITES)
        assert vps[0].rtt_difference_ms == pytest.approx(270.0)

    def test_prefers_fastest(self, make_vp_series):
        fast = vp_preferences(make_vp_series(0, "FFFS" * 3, rtts=RTTS_GAP), SITES)[0]
        slow = vp_preferences(make_vp_series(0, "SSSF" * 3, rtts=RTTS_GAP), SITES)[0]
        assert fast.prefers_fastest
        assert not slow.prefers_fastest

    def test_min_queries_filter(self, make_vp_series):
        observations = make_vp_series(0, "FS", rtts=RTTS_GAP)
        assert vp_preferences(observations, SITES, min_queries=10) == []

    def test_never_seen_site_rtt_is_nan(self, make_vp_series):
        observations = make_vp_series(0, "F" * 12, rtts=RTTS_GAP)
        vp = vp_preferences(observations, SITES)[0]
        assert vp.median_rtt_by_site["SYD"] != vp.median_rtt_by_site["SYD"]


class TestAnalyzePreference:
    def build(self, make_vp_series, weak=5, strong=3, none=2, rtts=RTTS_GAP):
        observations = []
        vp = 0
        for _ in range(strong):  # >=90% to FRA
            observations.extend(make_vp_series(vp, "F" * 19 + "S", rtts=rtts))
            vp += 1
        for _ in range(weak):    # 70% to FRA
            observations.extend(make_vp_series(vp, "FFFFFFFSSS" * 2, rtts=rtts))
            vp += 1
        for _ in range(none):    # 50/50
            observations.extend(make_vp_series(vp, "FS" * 10, rtts=rtts))
            vp += 1
        return observations

    def test_weak_and_strong_pcts(self, make_vp_series):
        observations = self.build(make_vp_series)
        result = analyze_preference(observations, SITES, combo_id="2C")
        assert result.gated_vp_count == 10
        # strong (3) also count as weak; weak total = 8 of 10
        assert result.weak_pct == pytest.approx(80.0)
        assert result.strong_pct == pytest.approx(30.0)

    def test_rtt_gate_excludes_close_sites(self, make_vp_series):
        observations = self.build(make_vp_series, rtts=RTTS_CLOSE)
        result = analyze_preference(observations, SITES)
        assert result.gated_vp_count == 0
        assert result.weak_pct == 0.0

    def test_all_vps_kept_in_list(self, make_vp_series):
        observations = self.build(make_vp_series, rtts=RTTS_CLOSE)
        result = analyze_preference(observations, SITES)
        assert len(result.vps) == 10

    def test_by_continent_grouping(self, make_vp_series):
        observations = make_vp_series(0, "F" * 12, continent=Continent.EU)
        observations += make_vp_series(1, "S" * 12, continent=Continent.OC)
        result = analyze_preference(observations, SITES)
        assert {vp.continent for vp in result.vps} == {Continent.EU, Continent.OC}


class TestTable2:
    def test_rows_per_continent(self, make_vp_series):
        observations = []
        for vp in range(3):
            observations.extend(
                make_vp_series(vp, "FFFS" * 3, rtts=RTTS_GAP, continent=Continent.EU)
            )
        for vp in range(3, 5):
            observations.extend(
                make_vp_series(vp, "SSSF" * 3, rtts={"FRA": 300, "SYD": 40},
                               continent=Continent.OC)
            )
        rows = table2_rows(observations, SITES)
        assert len(rows) == 2
        eu = next(r for r in rows if r.continent == Continent.EU)
        oc = next(r for r in rows if r.continent == Continent.OC)
        assert eu.share_pct_by_site["FRA"] == pytest.approx(75.0)
        assert oc.share_pct_by_site["SYD"] == pytest.approx(75.0)
        assert eu.median_rtt_by_site["FRA"] == pytest.approx(30.0)
        assert oc.median_rtt_by_site["SYD"] == pytest.approx(40.0)

    def test_share_inversely_proportional_to_rtt(self, make_vp_series):
        # The §4.3 headline: more queries to the lower-RTT site.
        observations = []
        for vp in range(5):
            observations.extend(make_vp_series(vp, "FFFFS" * 2, rtts=RTTS_GAP))
        rows = table2_rows(observations, SITES)
        row = rows[0]
        assert row.share_pct_by_site["FRA"] > row.share_pct_by_site["SYD"]
        assert row.median_rtt_by_site["FRA"] < row.median_rtt_by_site["SYD"]

    def test_vp_counts(self, make_vp_series):
        observations = make_vp_series(0, "FS" * 6)
        rows = table2_rows(observations, SITES)
        assert rows[0].vp_count == 1
