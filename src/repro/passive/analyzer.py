"""Production-trace analytics beyond Figure 7.

Root-traffic studies (Castro et al. [7]) report per-letter traffic
balance, query-rate distributions, and client concentration; these
helpers compute the same aggregates on any :class:`~repro.passive.trace.Trace`
so synthetic captures can be sanity-checked against published norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.stats import quantile

if TYPE_CHECKING:
    from .trace import Trace


@dataclass(frozen=True)
class TrafficBalance:
    """Per-server share of all captured queries (Castro et al. style)."""

    shares: dict[str, float]


def traffic_balance(trace: Trace) -> TrafficBalance:
    counts: dict[str, int] = {server: 0 for server in trace.observed_servers}
    counts.update(trace.queries_per_server())
    total = sum(counts.values())
    if total == 0:
        return TrafficBalance({server: 0.0 for server in counts})
    return TrafficBalance({server: n / total for server, n in counts.items()})


@dataclass(frozen=True)
class RateDistribution:
    """Distribution of per-recursive query rates in the capture window."""

    recursives: int
    total_queries: int
    median: float
    p90: float
    p99: float
    max: float


def rate_distribution(trace: Trace) -> RateDistribution:
    totals = [float(n) for n in trace.queries_per_recursive().values()]
    if not totals:
        return RateDistribution(0, 0, 0.0, 0.0, 0.0, 0.0)
    return RateDistribution(
        recursives=len(totals),
        total_queries=int(sum(totals)),
        median=quantile(totals, 0.50),
        p90=quantile(totals, 0.90),
        p99=quantile(totals, 0.99),
        max=max(totals),
    )


@dataclass(frozen=True)
class ClientConcentration:
    """How concentrated the query volume is over recursives."""

    top_1pct_share: float
    top_10pct_share: float
    gini: float


def client_concentration(trace: Trace) -> ClientConcentration:
    totals = sorted(trace.queries_per_recursive().values(), reverse=True)
    grand_total = sum(totals)
    if not totals or grand_total == 0:
        return ClientConcentration(0.0, 0.0, 0.0)
    top1 = max(1, len(totals) // 100)
    top10 = max(1, len(totals) // 10)
    top_1pct = sum(totals[:top1]) / grand_total
    top_10pct = sum(totals[:top10]) / grand_total
    # Gini over the (descending) totals.
    ascending = sorted(totals)
    cumulative = 0.0
    weighted = 0.0
    for index, value in enumerate(ascending, start=1):
        cumulative += value
        weighted += index * value
    n = len(ascending)
    gini = (2.0 * weighted) / (n * cumulative) - (n + 1.0) / n
    return ClientConcentration(top_1pct, top_10pct, gini)
