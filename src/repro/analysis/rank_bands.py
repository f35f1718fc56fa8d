"""Figure 7 / §5: rank-ordered NS shares per recursive in production.

Each busy recursive (≥250 queries/hour at the Root, as in the paper)
gets its per-NS query shares sorted descending: the top band is its most
queried letter, the next its second, and so on.  Aggregates report how
many NSes recursives actually touch.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RecursiveBands:
    """One recursive's rank-ordered shares (one column of Figure 7)."""

    recursive: str
    queries: int
    shares: tuple[float, ...]  # descending, sums to 1

    @property
    def distinct_targets(self) -> int:
        return sum(1 for share in self.shares if share > 0)

    @property
    def top_share(self) -> float:
        return self.shares[0] if self.shares else 0.0


@dataclass
class RankBandResult:
    """Figure 7 for one trace: bands plus coverage aggregates."""

    target_count: int               # NSes observable in the trace
    recursives: list[RecursiveBands]

    @property
    def recursive_count(self) -> int:
        return len(self.recursives)

    def pct_querying_exactly(self, count: int) -> float:
        if not self.recursives:
            return 0.0
        matching = sum(1 for r in self.recursives if r.distinct_targets == count)
        return 100.0 * matching / len(self.recursives)

    def pct_querying_at_least(self, count: int) -> float:
        if not self.recursives:
            return 0.0
        matching = sum(1 for r in self.recursives if r.distinct_targets >= count)
        return 100.0 * matching / len(self.recursives)

    def pct_querying_all(self) -> float:
        return self.pct_querying_at_least(self.target_count)

    def mean_bands(self) -> list[float]:
        """Mean share per rank — the average shape of Figure 7's columns."""
        if not self.recursives:
            return []
        bands = []
        for rank in range(self.target_count):
            total = sum(
                r.shares[rank] if rank < len(r.shares) else 0.0
                for r in self.recursives
            )
            bands.append(total / len(self.recursives))
        return bands


def analyze_rank_bands(
    queries_by_recursive: dict[str, dict[str, int]],
    target_count: int,
    min_queries: int = 250,
) -> RankBandResult:
    """Build Figure 7 from per-recursive, per-NS query counts.

    ``queries_by_recursive`` maps recursive address → {ns_id: count}.
    Only recursives with at least ``min_queries`` total are kept, as in
    the paper's DITL analysis.
    """
    recursives: list[RecursiveBands] = []
    for address, counts in queries_by_recursive.items():
        total = sum(counts.values())
        if total < min_queries:
            continue
        shares = sorted(
            (count / total for count in counts.values()), reverse=True
        )
        # Pad with zeros so every column has target_count bands.
        padded = tuple(shares) + (0.0,) * (target_count - len(shares))
        recursives.append(
            RecursiveBands(recursive=address, queries=total, shares=padded)
        )
    # Order columns by top-band share: the paper's plots sort recursives
    # from most- to least-concentrated.
    recursives.sort(key=lambda r: r.top_share, reverse=True)
    return RankBandResult(target_count=target_count, recursives=recursives)
