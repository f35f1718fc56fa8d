"""Figure 4 and Table 2 / §4.3: how individual recursives distribute queries.

Per vantage point, the fraction of queries sent to each authoritative.
Preference thresholds follow the paper: *weak* = ≥60 % of queries to one
site, *strong* = ≥90 %; preference fractions are quantified only over
VPs that see a median RTT difference of at least 50 ms between sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..atlas.platform import QueryObservation
from ..netsim.geo import Continent
from .aggregate import aggregate_of
from .stats import nan_median

WEAK_THRESHOLD = 0.60
STRONG_THRESHOLD = 0.90
RTT_GATE_MS = 50.0


@dataclass(frozen=True)
class VpPreference:
    """One recursive's (VP's) distribution — one x-position in Figure 4."""

    vp_id: int
    continent: Continent
    queries: int
    share_by_site: dict[str, float]
    median_rtt_by_site: dict[str, float]

    @property
    def preferred_site(self) -> str:
        return max(self.share_by_site, key=lambda s: self.share_by_site[s])

    @property
    def top_share(self) -> float:
        return self.share_by_site[self.preferred_site]

    @property
    def rtt_difference_ms(self) -> float:
        """Spread between slowest and fastest site (for the 50 ms gate)."""
        rtts = [v for v in self.median_rtt_by_site.values() if v == v]  # drop NaN
        if len(rtts) < 2:
            return 0.0
        return max(rtts) - min(rtts)

    @property
    def prefers_fastest(self) -> bool:
        measured = {
            site: rtt for site, rtt in self.median_rtt_by_site.items() if rtt == rtt
        }
        if not measured:
            return False
        return self.preferred_site == min(measured, key=measured.get)


@dataclass
class PreferenceResult:
    """Figure 4's summary numbers for one combination."""

    combo_id: str
    vps: list[VpPreference] = field(repr=False, default_factory=list)
    gated_vp_count: int = 0
    weak_pct: float = 0.0
    strong_pct: float = 0.0


def vp_preferences(
    observations: list[QueryObservation],
    sites: set[str],
    min_queries: int = 10,
) -> list[VpPreference]:
    """Per-VP site shares and RTTs over the successful observations.

    VPs come in the order of their first successful answer; a VP with
    fewer than ``min_queries`` successful answers (or none) is left out.
    """
    agg = aggregate_of(observations)
    preferences = []
    ordered, none = sorted(sites), range(0)
    for vp in range(agg.vp_count):
        answers = {agg.pair_site[pair]: agg.answers(pair) for pair in agg.pairs(vp)}
        queries = sum(map(len, answers.values()))
        if not queries or queries < min_queries:
            continue
        preferences.append(
            VpPreference(
                vp_id=agg.vp_id[vp],
                continent=agg.continent[vp],
                queries=queries,
                share_by_site={
                    site: len(answers.get(site, none)) / queries for site in ordered
                },
                median_rtt_by_site={
                    site: nan_median(agg.rtts(answers.get(site, none))) for site in ordered
                },
            )
        )
    return preferences


def analyze_preference(
    observations: list[QueryObservation],
    sites: set[str],
    combo_id: str = "",
    min_queries: int = 10,
    rtt_gate_ms: float = RTT_GATE_MS,
) -> PreferenceResult:
    """Figure 4's weak/strong preference fractions for one combination."""
    vps = vp_preferences(observations, sites, min_queries=min_queries)
    gated = [vp for vp in vps if vp.rtt_difference_ms >= rtt_gate_ms]
    result = PreferenceResult(combo_id=combo_id, vps=vps)
    result.gated_vp_count = len(gated)
    if gated:
        result.weak_pct = 100.0 * sum(
            vp.top_share >= WEAK_THRESHOLD for vp in gated
        ) / len(gated)
        result.strong_pct = 100.0 * sum(
            vp.top_share >= STRONG_THRESHOLD for vp in gated
        ) / len(gated)
    return result


@dataclass(frozen=True)
class ContinentRow:
    """One cell pair of Table 2: a continent's share and RTT per site."""

    continent: Continent
    share_pct_by_site: dict[str, float]
    median_rtt_by_site: dict[str, float]
    vp_count: int


def table2_rows(
    observations: list[QueryObservation],
    sites: set[str],
    min_queries: int = 10,
) -> list[ContinentRow]:
    """Table 2: per-continent query distribution and median RTT."""
    vps = vp_preferences(observations, sites, min_queries=min_queries)
    rows = []
    for continent in Continent:
        members = [vp for vp in vps if vp.continent == continent]
        if not members:
            continue
        total_queries = sum(vp.queries for vp in members)
        share = {}
        rtts = {}
        for site in sorted(sites):
            site_queries = sum(vp.share_by_site[site] * vp.queries for vp in members)
            share[site] = 100.0 * site_queries / total_queries
            rtts[site] = nan_median(vp.median_rtt_by_site[site] for vp in members)
        rows.append(
            ContinentRow(
                continent=continent,
                share_pct_by_site=share,
                median_rtt_by_site=rtts,
                vp_count=len(members),
            )
        )
    return rows


@dataclass(frozen=True)
class StrengtheningResult:
    """§4.3: do weak preferences strengthen over the hour?

    Computed over VPs that already show a weak (but not strong)
    preference during the first window: the paper observes these VPs
    "develop an even stronger preference" after 30 minutes.
    """

    vp_count: int
    mean_share_first: float
    mean_share_second: float
    pct_strengthened: float

    @property
    def preferences_strengthen(self) -> bool:
        return self.vp_count > 0 and self.mean_share_second > self.mean_share_first


def analyze_strengthening(
    observations: list[QueryObservation],
    sites: set[str],
    split_s: float = 1800.0,
    min_queries_per_half: int = 5,
) -> StrengtheningResult:
    """Compare each weak-preference VP's top share before/after ``split_s``."""
    by_vp: dict[int, list[QueryObservation]] = {}
    for obs in observations:
        if obs.succeeded and obs.site:
            by_vp.setdefault(obs.vp_id, []).append(obs)

    firsts: list[float] = []
    seconds: list[float] = []
    strengthened = 0
    for rows in by_vp.values():
        rows.sort(key=lambda o: o.timestamp)
        start = rows[0].timestamp
        first = [o for o in rows if o.timestamp - start < split_s]
        second = [o for o in rows if o.timestamp - start >= split_s]
        if len(first) < min_queries_per_half or len(second) < min_queries_per_half:
            continue
        share_first = {
            site: sum(o.site == site for o in first) / len(first) for site in sites
        }
        preferred = max(share_first, key=share_first.get)
        top_first = share_first[preferred]
        if not WEAK_THRESHOLD <= top_first < STRONG_THRESHOLD:
            continue  # only VPs with a weak (not yet strong) preference
        top_second = sum(o.site == preferred for o in second) / len(second)
        firsts.append(top_first)
        seconds.append(top_second)
        strengthened += top_second > top_first
    count = len(firsts)
    return StrengtheningResult(
        vp_count=count,
        mean_share_first=sum(firsts) / count if count else 0.0,
        mean_share_second=sum(seconds) / count if count else 0.0,
        pct_strengthened=100.0 * strengthened / count if count else 0.0,
    )
