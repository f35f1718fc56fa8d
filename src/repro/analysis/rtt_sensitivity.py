"""Figure 5 / §4.3: RTT sensitivity of preference, per continent.

For a two-site combination, each continent contributes one point per
site: (median RTT of the VPs that *prefer* that site, mean fraction of
queries those VPs send to it).  The paper's conclusion: preference is
RTT-driven nearby, but decays once both sites are far (>~150 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from ..netsim.geo import Continent
from .preference import VpPreference, vp_preferences
from .stats import nan_median


@dataclass(frozen=True)
class SensitivityPoint:
    """One point of Figure 5."""

    continent: Continent
    site: str
    median_rtt_ms: float
    mean_query_fraction: float
    vp_count: int


@dataclass(frozen=True)
class RttSensitivityResult:
    combo_id: str
    points: list[SensitivityPoint]
    vp_count_by_continent: dict[Continent, int]

    def points_for(self, continent: Continent) -> list[SensitivityPoint]:
        return [p for p in self.points if p.continent == continent]

    def preference_spread(self, continent: Continent) -> float:
        """Gap between the two sites' query fractions for a continent —
        large nearby (strong preference), small far away."""
        points = self.points_for(continent)
        if len(points) < 2:
            return 0.0
        fractions = [p.mean_query_fraction for p in points]
        return max(fractions) - min(fractions)


def analyze_rtt_sensitivity(
    observations: list[QueryObservation],
    sites: set[str],
    combo_id: str = "",
    min_queries: int = 10,
) -> RttSensitivityResult:
    if len(sites) != 2:
        raise ValueError("Figure 5 is defined for two-site combinations")
    vps = vp_preferences(observations, sites, min_queries=min_queries)
    points: list[SensitivityPoint] = []
    counts: dict[Continent, int] = {}
    for continent in Continent:
        members = [vp for vp in vps if vp.continent == continent]
        if not members:
            continue
        counts[continent] = len(members)
        for site in sorted(sites):
            preferers = [vp for vp in members if vp.preferred_site == site]
            if not preferers:
                continue
            rtt = nan_median(vp.median_rtt_by_site[site] for vp in preferers)
            if rtt != rtt:  # no preferer measured an RTT to it
                continue
            fraction = sum(vp.share_by_site[site] for vp in preferers) / len(preferers)
            points.append(
                SensitivityPoint(
                    continent=continent,
                    site=site,
                    median_rtt_ms=rtt,
                    mean_query_fraction=fraction,
                    vp_count=len(preferers),
                )
            )
    return RttSensitivityResult(
        combo_id=combo_id, points=points, vp_count_by_continent=counts
    )
