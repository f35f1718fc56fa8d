"""Figure 6 / §4.4: how query frequency influences selection.

The 2C combination is re-run at intervals of 2..30 minutes; per continent
we track the fraction of queries going to the reference site (FRA in the
paper).  The finding: preference is strongest with frequent queries but
*persists* past the nominal 10/15-minute infrastructure-cache timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from ..netsim.geo import Continent
from .aggregate import aggregate_of


@dataclass(frozen=True)
class IntervalPoint:
    """Fraction of one continent's queries reaching the reference site."""

    interval_min: float
    continent: Continent
    fraction_to_reference: float
    queries: int


@dataclass
class IntervalSweepResult:
    reference_site: str
    points: list[IntervalPoint]

    def series(self, continent: Continent) -> list[tuple[float, float]]:
        """(interval, fraction) pairs for one continent, ordered."""
        pairs = [
            (p.interval_min, p.fraction_to_reference)
            for p in self.points
            if p.continent == continent
        ]
        return sorted(pairs)

    def preference_persists(
        self, continent: Continent, threshold: float = 0.55
    ) -> bool:
        """True when even the longest interval keeps the preference."""
        series = self.series(continent)
        return bool(series) and series[-1][1] >= threshold


def fraction_to_site(
    observations: list[QueryObservation], site: str
) -> dict[Continent, tuple[float, int]]:
    """Per continent: (fraction of successful queries to ``site``, count)."""
    agg = aggregate_of(observations)
    totals: dict[Continent, int] = {}
    hits: dict[Continent, int] = {}
    for vp in range(agg.vp_count):
        counts = agg.answer_counts(vp)
        if counts:
            continent = agg.continent[vp]
            totals[continent] = totals.get(continent, 0) + sum(counts.values())
            hits[continent] = hits.get(continent, 0) + counts.get(site, 0)
    return {
        continent: (hits.get(continent, 0) / total, total)
        for continent, total in totals.items()
    }


def analyze_interval_sweep(
    runs: dict[float, list[QueryObservation]],
    reference_site: str,
) -> IntervalSweepResult:
    """Combine runs keyed by interval (minutes) into the Figure 6 series."""
    points: list[IntervalPoint] = []
    for interval_min, observations in sorted(runs.items()):
        for continent, (fraction, count) in fraction_to_site(
            observations, reference_site
        ).items():
            points.append(
                IntervalPoint(
                    interval_min=interval_min,
                    continent=continent,
                    fraction_to_reference=fraction,
                    queries=count,
                )
            )
    return IntervalSweepResult(reference_site=reference_site, points=points)
