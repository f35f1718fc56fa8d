"""Figure 3 / §4.2: query share per authoritative vs. its median RTT.

Per combination: the fraction of (hot-cache) queries each site received,
next to the median RTT recursives saw to that site.  The paper's claim:
the lowest-RTT site always receives the most queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .stats import median
from .streams import iter_observation_fields, site_completion_times


@dataclass(frozen=True)
class SiteShare:
    """One bar of Figure 3 (bottom) plus its RTT point (top)."""

    site: str
    query_share: float
    median_rtt_ms: float
    queries: int


@dataclass(frozen=True)
class QueryShareResult:
    combo_id: str
    sites: list[SiteShare]

    def ranked_by_share(self) -> list[SiteShare]:
        return sorted(self.sites, key=lambda s: s.query_share, reverse=True)

    def ranked_by_rtt(self) -> list[SiteShare]:
        return sorted(self.sites, key=lambda s: s.median_rtt_ms)

    @property
    def fastest_site_wins(self) -> bool:
        """The paper's §4.2 statement for this combination."""
        return self.ranked_by_share()[0].site == self.ranked_by_rtt()[0].site


def analyze_query_share(
    observations: list[QueryObservation],
    sites: set[str],
    combo_id: str = "",
    hot_cache_only: bool = True,
) -> QueryShareResult:
    """Streaming version: two passes, no row materialization.

    Pass one finds each VP's hot-cache boundary (the timestamp at which
    it has been answered by every site); pass two tallies the rows past
    it.  Accepts a plain observation list or a store-backed rows view —
    the latter is read column-wise.
    """
    hot_time = (
        site_completion_times(observations, sites) if hot_cache_only else None
    )
    total = 0
    counts = dict.fromkeys(sites, 0)
    rtts: dict[str, list[float]] = {site: [] for site in sites}
    for vp, t, site, ok, rtt, _continent in iter_observation_fields(
        observations
    ):
        if not ok or not site:
            continue
        if hot_time is not None:
            boundary = hot_time.get(vp)
            # The completing row itself is still warm-up: keep only
            # rows strictly past the boundary.
            if boundary is None or t <= boundary:
                continue
        total += 1
        if site in counts:
            counts[site] += 1
            if rtt is not None:
                rtts[site].append(rtt)
    if not total:
        raise ValueError("no successful observations")
    shares = [
        SiteShare(
            site=site,
            query_share=counts[site] / total,
            median_rtt_ms=median(rtts[site]) if rtts[site] else float("nan"),
            queries=counts[site],
        )
        for site in sorted(sites)
    ]
    return QueryShareResult(combo_id=combo_id, sites=shares)
