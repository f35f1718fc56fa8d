"""Figure 2 / §4.1: do recursives query all authoritatives?

For every vantage point, count how many queries *after the first* it
takes until every authoritative has answered at least once, and what
fraction of VPs ever get there.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .stats import BoxplotStats
from .streams import iter_observation_fields, site_completion_times


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

    Streaming version: rather than bucketing every row into per-VP
    lists, pass one finds each VP's completion timestamp (any answer
    counts here, not just successes — §4.1 counts queries, and the
    legacy scan behaved the same) and pass two counts the rows before
    it, which is exactly the completing row's index in timestamp order.
    """
    completion = site_completion_times(
        observations, sites, successful_only=False
    )
    row_count: dict[int, int] = {}
    queries_before: dict[int, int] = dict.fromkeys(completion, 0)
    for vp, t, _site, _ok, _rtt, _continent in iter_observation_fields(
        observations
    ):
        row_count[vp] = row_count.get(vp, 0) + 1
        boundary = completion.get(vp)
        if boundary is not None and t < boundary:
            queries_before[vp] += 1

    counts: list[float] = []
    eligible = 0
    for vp, rows in row_count.items():
        if rows < min_queries:
            continue
        eligible += 1
        if vp in completion:
            # Queries *after the first* until every site answered.
            counts.append(float(queries_before[vp]))
    if eligible == 0:
        raise ValueError("no vantage point sent enough queries")
    return ProbeAllResult(
        combo_id=combo_id,
        site_count=len(sites),
        vp_count=eligible,
        probed_all_pct=100.0 * len(counts) / eligible,
        queries_to_all=BoxplotStats.from_values(counts) if counts else None,
    )
