"""Analyses reproducing each figure and table of the paper."""

from .interval import (
    IntervalPoint,
    IntervalSweepResult,
    analyze_interval_sweep,
    fraction_to_site,
)
from .preference import (
    RTT_GATE_MS,
    STRONG_THRESHOLD,
    WEAK_THRESHOLD,
    ContinentRow,
    PreferenceResult,
    StrengtheningResult,
    VpPreference,
    analyze_preference,
    analyze_strengthening,
    table2_rows,
    vp_preferences,
)
from .figures import render_fig4_curves, render_fig7_bands, sparkline
from .ground_truth import (
    ImplementationRow,
    breakdown_by_implementation,
    render_implementation_breakdown,
)
from .paper import PAPER_CLAIMS, PaperClaim, Scorecard, build_scorecard
from .probe_all import ProbeAllResult, analyze_probe_all
from .streams import iter_observation_fields, site_completion_times
from .query_share import (
    QueryShareResult,
    SiteShare,
    analyze_query_share,
)
from .rank_bands import RankBandResult, RecursiveBands, analyze_rank_bands
from .report import (
    render_interval_sweep,
    render_preference,
    render_probe_all,
    render_query_share,
    render_rank_bands,
    render_rtt_sensitivity,
    render_table,
    render_table2,
)
from .rtt_sensitivity import (
    RttSensitivityResult,
    SensitivityPoint,
    analyze_rtt_sensitivity,
)
from .stats import BoxplotStats, bootstrap_ci, median, quantile
from .validation import (
    ViewComparison,
    client_side_shares,
    compare_views,
    server_side_shares,
    server_side_shares_from_trace,
)

__all__ = [
    "BoxplotStats",
    "ContinentRow",
    "ImplementationRow",
    "IntervalPoint",
    "IntervalSweepResult",
    "breakdown_by_implementation",
    "render_implementation_breakdown",
    "PreferenceResult",
    "PAPER_CLAIMS",
    "PaperClaim",
    "ProbeAllResult",
    "QueryShareResult",
    "Scorecard",
    "RTT_GATE_MS",
    "RankBandResult",
    "RecursiveBands",
    "RttSensitivityResult",
    "STRONG_THRESHOLD",
    "SensitivityPoint",
    "SiteShare",
    "StrengtheningResult",
    "analyze_strengthening",
    "bootstrap_ci",
    "build_scorecard",
    "ViewComparison",
    "VpPreference",
    "WEAK_THRESHOLD",
    "analyze_interval_sweep",
    "client_side_shares",
    "compare_views",
    "server_side_shares",
    "server_side_shares_from_trace",
    "analyze_preference",
    "analyze_probe_all",
    "analyze_query_share",
    "analyze_rank_bands",
    "analyze_rtt_sensitivity",
    "fraction_to_site",
    "iter_observation_fields",
    "site_completion_times",
    "median",
    "quantile",
    "render_fig4_curves",
    "render_fig7_bands",
    "render_interval_sweep",
    "render_preference",
    "sparkline",
    "render_probe_all",
    "render_query_share",
    "render_rank_bands",
    "render_rtt_sensitivity",
    "render_table",
    "render_table2",
    "table2_rows",
    "vp_preferences",
]
