"""Analyses reproducing each figure and table of the paper."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "aggregate": "VpSiteAggregate aggregate_of",
    "figures": "render_fig4_curves render_fig7_bands sparkline",
    "ground_truth": "ImplementationRow breakdown_by_implementation "
    "render_implementation_breakdown",
    "interval": "IntervalPoint IntervalSweepResult analyze_interval_sweep "
    "fraction_to_site",
    "paper": "PAPER_CLAIMS PaperClaim Scorecard build_scorecard",
    "preference": "RTT_GATE_MS STRONG_THRESHOLD WEAK_THRESHOLD ContinentRow "
    "PreferenceResult StrengtheningResult VpPreference analyze_preference "
    "analyze_strengthening table2_rows vp_preferences",
    "probe_all": "ProbeAllResult analyze_probe_all",
    "query_share": "QueryShareResult SiteShare analyze_query_share",
    "rank_bands": "RankBandResult RecursiveBands analyze_rank_bands",
    "report": "render_interval_sweep render_preference render_probe_all "
    "render_query_share render_rank_bands render_rtt_sensitivity render_table "
    "render_table2",
    "rtt_sensitivity": "RttSensitivityResult SensitivityPoint "
    "analyze_rtt_sensitivity",
    "stats": "BoxplotStats bootstrap_ci median quantile",
    "validation": "ViewComparison client_side_shares compare_views "
    "server_side_shares_from_trace",
})
