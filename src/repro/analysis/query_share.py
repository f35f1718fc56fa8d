"""Figure 3 / §4.2: query share per authoritative vs. its median RTT.

Per combination: the fraction of (hot-cache) queries each site received,
next to the median RTT recursives saw to that site.  The paper's claim:
the lowest-RTT site always receives the most queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .aggregate import aggregate_of
from .stats import nan_median


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
    """Per site: share of the successful answers and median RTT.

    With ``hot_cache_only``, a VP counts only once every site has
    answered it, and only the answers strictly past the one that
    completed its view (that one is still warm-up).
    """
    agg = aggregate_of(observations)
    total = 0
    counts = dict.fromkeys(sites, 0)
    spans: dict[str, list[range]] = {site: [] for site in sites}
    for vp in range(agg.vp_count):
        after = agg.completion(vp, sites, successful=True) if hot_cache_only else -1
        if after is None:
            continue
        for pair in agg.pairs(vp):
            answers = agg.answers(pair, after)
            total += len(answers)
            site = agg.pair_site[pair]
            if site in counts:
                counts[site] += len(answers)
                spans[site].append(answers)
    if not total:
        raise ValueError("no successful observations")
    shares = [
        SiteShare(
            site=site,
            query_share=counts[site] / total,
            median_rtt_ms=nan_median(
                rtt for span in spans[site] for rtt in agg.rtts(span)
            ),
            queries=counts[site],
        )
        for site in sorted(sites)
    ]
    return QueryShareResult(combo_id=combo_id, sites=shares)
