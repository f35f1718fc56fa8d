"""The paper's published numbers, as data, plus a comparison scorecard.

Collects every quantitative claim the reproduction targets (Figures 2-7,
Tables 1-2, §7) in one structured table, and renders measured values
against them with a tolerance-based verdict.  ``shape`` tolerances are
deliberately loose: the reproduction runs a simulator at reduced scale,
so orderings and magnitudes are the contract, not decimals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.geo import Continent
from .interval import analyze_interval_sweep
from .preference import analyze_preference, table2_rows
from .probe_all import analyze_probe_all
from .rank_bands import analyze_rank_bands
from .report import render_table


@dataclass(frozen=True)
class PaperClaim:
    """One published number and the band a faithful reproduction hits."""

    claim_id: str
    source: str          # e.g. "Fig 2", "Table 2", "§7"
    description: str
    paper_value: float
    tolerance: float     # absolute, in the value's own units
    unit: str = "%"


#: Every numeric claim the benchmarks check, keyed by claim id.
PAPER_CLAIMS: dict[str, PaperClaim] = {
    claim.claim_id: claim
    for claim in [
        PaperClaim(
            "fig2_probed_all_min", "Fig 2",
            "minimum probed-all fraction over combinations", 75.0, 15.0,
        ),
        PaperClaim(
            "fig2_2ns_median_queries", "Fig 2",
            "median queries-to-all, two-NS combos", 1.0, 1.0, unit="queries",
        ),
        PaperClaim(
            "fig2_4ns_median_queries", "Fig 2",
            "median queries-to-all, four-NS combos", 7.0, 4.0, unit="queries",
        ),
        PaperClaim(
            "fig4_2a_weak", "Fig 4", "2A weak preference", 61.0, 12.0,
        ),
        PaperClaim(
            "fig4_2a_strong", "Fig 4", "2A strong preference", 10.0, 8.0,
        ),
        PaperClaim(
            "fig4_2b_weak", "Fig 4", "2B weak preference", 59.0, 12.0,
        ),
        PaperClaim(
            "fig4_2b_strong", "Fig 4", "2B strong preference", 12.0, 8.0,
        ),
        PaperClaim(
            "fig4_2c_weak", "Fig 4", "2C weak preference", 69.0, 12.0,
        ),
        PaperClaim(
            "fig4_2c_strong", "Fig 4", "2C strong preference", 37.0, 12.0,
        ),
        PaperClaim(
            "table2_2c_eu_fra_share", "Table 2", "2C EU share to FRA", 83.0, 15.0,
        ),
        PaperClaim(
            "table2_2c_eu_fra_rtt", "Table 2", "2C EU median RTT to FRA",
            39.0, 20.0, unit="ms",
        ),
        PaperClaim(
            "table2_2c_eu_syd_rtt", "Table 2", "2C EU median RTT to SYD",
            355.0, 60.0, unit="ms",
        ),
        PaperClaim(
            "fig6_eu_2min", "Fig 6", "EU fraction to FRA at 2-min interval",
            0.83, 0.15, unit="fraction",
        ),
        PaperClaim(
            "fig6_eu_30min_persists", "Fig 6",
            "EU fraction to FRA at 30-min interval", 0.65, 0.15, unit="fraction",
        ),
        PaperClaim(
            "fig7_root_one_letter", "Fig 7", "Root busy recursives on one letter",
            20.0, 8.0,
        ),
        PaperClaim(
            "fig7_root_six_plus", "Fig 7", "Root busy recursives on >=6 letters",
            60.0, 15.0,
        ),
        PaperClaim(
            "fig7_root_all_ten", "Fig 7", "Root busy recursives on all 10",
            2.0, 6.0,
        ),
        PaperClaim(
            "fig7_nl_all_four", "Fig 7", ".nl recursives querying all 4 observed",
            75.0, 25.0,
        ),
    ]
}


@dataclass
class Scorecard:
    """Measured values vs. the paper's, with verdicts."""

    measured: dict[str, float] = field(default_factory=dict)

    def record(self, claim_id: str, value: float) -> None:
        if claim_id not in PAPER_CLAIMS:
            raise KeyError(f"unknown claim id {claim_id!r}")
        self.measured[claim_id] = value

    def verdict(self, claim_id: str) -> str:
        claim = PAPER_CLAIMS[claim_id]
        value = self.measured.get(claim_id)
        if value is None:
            return "missing"
        return "ok" if abs(value - claim.paper_value) <= claim.tolerance else "off"

    def misses(self) -> list[str]:
        return [
            claim_id
            for claim_id in self.measured
            if self.verdict(claim_id) == "off"
        ]

    def render(self) -> str:
        rows = []
        for claim_id, value in self.measured.items():
            claim = PAPER_CLAIMS[claim_id]
            unit = "" if claim.unit == "fraction" else f" {claim.unit}"
            rows.append(
                [
                    claim.source,
                    claim.description,
                    f"{claim.paper_value:g}{unit}",
                    f"{value:.2f}",
                    f"±{claim.tolerance:g}",
                    self.verdict(claim_id),
                ]
            )
        return render_table(
            ["source", "claim", "paper", "measured", "tol", "verdict"],
            rows,
            title="Paper-vs-measured scorecard",
        )


def build_scorecard(
    get_run, sweep_probes: int, recursives: int, seed: int
) -> Scorecard:
    """Measure every claim in :data:`PAPER_CLAIMS`, in one pass.

    ``get_run(combo_id)`` returns the default-campaign result of a
    Table 1 combination (a fresh run, or a cache).  The Figure 6 sweep
    runs 2C itself with ``sweep_probes`` probes at ``seed``; the Figure 7
    traces are ``recursives`` wide at their own fixed seeds.
    """
    # Imported here only: the campaign and trace generators sit above
    # the analysis layer, which otherwise just reads observations.
    from ..core import COMBINATIONS, run_combination
    from ..passive import generate_ditl_trace, generate_nl_trace

    card = Scorecard()
    runs = {combo_id: get_run(combo_id) for combo_id in COMBINATIONS}

    # Figure 2.
    probe_all = {
        combo_id: analyze_probe_all(
            runs[combo_id].observations, set(combo.sites), combo_id=combo_id
        )
        for combo_id, combo in COMBINATIONS.items()
    }
    card.record(
        "fig2_probed_all_min",
        min(result.probed_all_pct for result in probe_all.values()),
    )
    card.record(
        "fig2_2ns_median_queries",
        max(probe_all[c].queries_to_all.median for c in ("2A", "2B", "2C")),
    )
    card.record(
        "fig2_4ns_median_queries",
        max(probe_all[c].queries_to_all.median for c in ("4A", "4B")),
    )

    # Figure 4 + Table 2.
    for combo_id in ("2A", "2B", "2C"):
        sites = set(COMBINATIONS[combo_id].sites)
        pref = analyze_preference(runs[combo_id].observations, sites, combo_id)
        card.record(f"fig4_{combo_id.lower()}_weak", pref.weak_pct)
        card.record(f"fig4_{combo_id.lower()}_strong", pref.strong_pct)
    rows = table2_rows(runs["2C"].observations, {"FRA", "SYD"})
    eu = next(row for row in rows if row.continent == Continent.EU)
    card.record("table2_2c_eu_fra_share", eu.share_pct_by_site["FRA"])
    card.record("table2_2c_eu_fra_rtt", eu.median_rtt_by_site["FRA"])
    card.record("table2_2c_eu_syd_rtt", eu.median_rtt_by_site["SYD"])

    # Figure 6 (2 runs at the extremes).
    sweep_runs = {}
    for minutes in (2, 30):
        result = run_combination(
            "2C",
            num_probes=sweep_probes,
            interval_s=minutes * 60.0,
            duration_s=3600.0 if minutes == 2 else minutes * 60.0 * 6,
            seed=seed,
        )
        sweep_runs[float(minutes)] = result.observations
    eu_series = dict(
        analyze_interval_sweep(sweep_runs, "FRA").series(Continent.EU)
    )
    card.record("fig6_eu_2min", eu_series[2.0])
    card.record("fig6_eu_30min_persists", eu_series[30.0])

    # Figure 7.
    root = analyze_rank_bands(
        generate_ditl_trace(
            num_recursives=recursives, seed=2
        ).queries_by_recursive(),
        target_count=10,
        min_queries=250,
    )
    card.record("fig7_root_one_letter", root.pct_querying_exactly(1))
    card.record("fig7_root_six_plus", root.pct_querying_at_least(6))
    card.record("fig7_root_all_ten", root.pct_querying_all())
    nl = analyze_rank_bands(
        generate_nl_trace(
            num_recursives=recursives, seed=3
        ).queries_by_recursive(),
        target_count=4,
        min_queries=250,
    )
    card.record("fig7_nl_all_four", nl.pct_querying_all())
    return card
