"""Ground-truth breakdowns the paper could not do.

The paper cannot see which software each recursive runs (§3.1: it
refrains from identifying implementations because of middleboxes).  The
simulation knows, so these breakdowns answer the question behind Yu et
al.'s testbed work with in-the-wild-style data: which implementation
family drives which part of the aggregate preference signal?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .aggregate import aggregate_of
from .preference import STRONG_THRESHOLD, WEAK_THRESHOLD, vp_preferences
from .report import render_table


@dataclass(frozen=True)
class ImplementationRow:
    """Preference statistics for one resolver implementation family."""

    impl_name: str
    vp_count: int
    mean_top_share: float
    weak_pct: float
    strong_pct: float
    prefers_fastest_pct: float


def breakdown_by_implementation(
    observations: list[QueryObservation],
    sites: set[str],
    min_queries: int = 10,
) -> list[ImplementationRow]:
    """Per-implementation preference statistics (ground truth)."""
    agg = aggregate_of(observations)
    impl_of_vp = dict(zip(agg.vp_id, agg.impl_name))
    vps = vp_preferences(observations, sites, min_queries=min_queries)
    grouped: dict[str, list] = {}
    for vp in vps:
        grouped.setdefault(impl_of_vp[vp.vp_id], []).append(vp)

    rows = []
    for impl_name in sorted(grouped):
        members = grouped[impl_name]
        count = len(members)
        rows.append(
            ImplementationRow(
                impl_name=impl_name,
                vp_count=count,
                mean_top_share=sum(vp.top_share for vp in members) / count,
                weak_pct=100.0
                * sum(vp.top_share >= WEAK_THRESHOLD for vp in members)
                / count,
                strong_pct=100.0
                * sum(vp.top_share >= STRONG_THRESHOLD for vp in members)
                / count,
                prefers_fastest_pct=100.0
                * sum(vp.prefers_fastest for vp in members)
                / count,
            )
        )
    return rows


def render_implementation_breakdown(rows: list[ImplementationRow]) -> str:
    table_rows = [
        [
            row.impl_name,
            str(row.vp_count),
            f"{row.mean_top_share:.2f}",
            f"{row.weak_pct:.0f}%",
            f"{row.strong_pct:.0f}%",
            f"{row.prefers_fastest_pct:.0f}%",
        ]
        for row in rows
    ]
    return render_table(
        ["impl", "VPs", "mean top share", "weak", "strong", "prefers fastest"],
        table_rows,
        title="Ground truth: preference by resolver implementation",
    )
