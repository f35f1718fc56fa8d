"""Figure 2 / §4.1: do recursives query all authoritatives?

For every vantage point, count how many queries *after the first* it
takes until every authoritative has answered at least once, and what
fraction of VPs ever get there.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .aggregate import aggregate_of
from .stats import BoxplotStats


@dataclass(frozen=True)
class ProbeAllResult:
    """One combination's Figure 2 column."""

    combo_id: str
    site_count: int
    vp_count: int
    probed_all_pct: float              # x-axis label of Figure 2
    queries_to_all: BoxplotStats | None  # box for VPs that probed all


def analyze_probe_all(
    observations: list[QueryObservation],
    sites: set[str],
    combo_id: str = "",
    min_queries: int = 10,
) -> ProbeAllResult:
    """Compute the Figure 2 statistics for one combination's run.

    A VP's count is the ordinal of the row that completes its view of
    ``sites`` (any answer counts here, not just successes — §4.1 counts
    queries): the number of its queries before that one.
    """
    agg = aggregate_of(observations)
    counts: list[float] = []
    eligible = 0
    for vp in range(agg.vp_count):
        if agg.rows[vp] < min_queries:
            continue
        eligible += 1
        completed = agg.completion(vp, sites, successful=False)
        if completed is not None:
            # Queries *after the first* until every site answered.
            counts.append(float(completed))
    if eligible == 0:
        raise ValueError("no vantage point sent enough queries")
    return ProbeAllResult(
        combo_id=combo_id,
        site_count=len(sites),
        vp_count=eligible,
        probed_all_pct=100.0 * len(counts) / eligible,
        queries_to_all=BoxplotStats.from_values(counts) if counts else None,
    )
