"""§3.1 middlebox validation: client-side vs. authoritative-side views.

The paper checks that middleboxes do not distort its client-side data by
recomputing the preference distribution from the authoritative-side
packet captures (recursives sending ≥5 queries) and comparing: "the two
graphs are basically equivalent".  This module performs the same
comparison on a finished experiment; the server-side capture is the
``auth.query`` spans its telemetry tracer kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atlas.platform import QueryObservation
from .aggregate import aggregate_of
from .stats import quantile


def client_side_shares(
    observations: list[QueryObservation], min_queries: int = 5
) -> dict[str, dict[str, float]]:
    """Per *recursive address*: site shares, from the VP-side data."""
    agg = aggregate_of(observations)
    counts: dict[str, dict[str, int]] = {}
    for vp in range(agg.vp_count):
        for site, answers in agg.answer_counts(vp).items():
            per_site = counts.setdefault(agg.recursive_address[vp], {})
            per_site[site] = per_site.get(site, 0) + answers
    return _normalize(counts, min_queries)


def server_side_shares_from_trace(
    tracer, min_queries: int = 5
) -> dict[str, dict[str, float]]:
    """Per recursive address: site shares, from query-lifecycle traces.

    The telemetry tracer's ``auth.query`` spans carry exactly what a
    server-side capture records — which recursive asked which site, the
    paper's passive vantage; the engines themselves keep nothing per
    query.  ``tracer`` is a :class:`repro.telemetry.Tracer` (or any
    iterable of root spans).
    """
    roots = tracer.traces() if hasattr(tracer, "traces") else tracer
    counts: dict[str, dict[str, int]] = {}
    for root in roots:
        for span in root.trace:
            if span.name != "auth.query":
                continue
            recursive = str(span.attributes.get("client", ""))
            server = str(span.attributes.get("server", ""))
            if not recursive or not server:
                continue
            # marker convention: "<ns>-<SITE>" identifies the instance
            site = server.rsplit("-", 1)[-1]
            per_site = counts.setdefault(recursive, {})
            per_site[site] = per_site.get(site, 0) + 1
    return _normalize(counts, min_queries)


def _normalize(
    counts: dict[str, dict[str, int]], min_queries: int
) -> dict[str, dict[str, float]]:
    shares: dict[str, dict[str, float]] = {}
    for recursive, per_site in counts.items():
        total = sum(per_site.values())
        if total < min_queries:
            continue
        shares[recursive] = {site: n / total for site, n in per_site.items()}
    return shares


@dataclass(frozen=True)
class ViewComparison:
    """Agreement between the client-side and server-side views."""

    recursives_compared: int
    mean_divergence: float    # mean over recursives of max |Δshare|
    p90_divergence: float
    client_only: int          # recursives visible only client-side
    server_only: int

    @property
    def views_equivalent(self) -> bool:
        """The paper's conclusion for its own data: basically equivalent."""
        return self.mean_divergence < 0.05


def compare_views(
    observations: list[QueryObservation],
    tracer,
    min_queries: int = 5,
    sink=None,
) -> ViewComparison:
    """Compare the two vantages, as the paper does for Figure 4.

    The server-side vantage is the telemetry ``tracer``'s ``auth.query``
    spans (see :func:`server_side_shares_from_trace`), so the campaign
    must run with tracing on.  ``sink`` is an optional event-log writer:
    the result is appended to it as a ``view_comparison`` event for
    offline analysis.
    """
    client = client_side_shares(observations, min_queries)
    server = server_side_shares_from_trace(tracer, min_queries)
    common = sorted(set(client) & set(server))
    divergences = []
    for recursive in common:
        sites = set(client[recursive]) | set(server[recursive])
        divergence = max(
            abs(client[recursive].get(site, 0.0) - server[recursive].get(site, 0.0))
            for site in sites
        )
        divergences.append(divergence)
    if divergences:
        mean_divergence = sum(divergences) / len(divergences)
        p90 = quantile(divergences, 0.90)
    else:
        mean_divergence = 0.0
        p90 = 0.0
    comparison = ViewComparison(
        recursives_compared=len(common),
        mean_divergence=mean_divergence,
        p90_divergence=p90,
        client_only=len(set(client) - set(server)),
        server_only=len(set(server) - set(client)),
    )
    if sink is not None and getattr(sink, "enabled", True):
        from ..telemetry import ViewComparisonEvent

        sink.emit(ViewComparisonEvent(comparison={
            "recursives_compared": comparison.recursives_compared,
            "mean_divergence": comparison.mean_divergence,
            "p90_divergence": comparison.p90_divergence,
            "client_only": comparison.client_only,
            "server_only": comparison.server_only,
            "min_queries": min_queries,
            "vantage": "tracer",
        }))
    return comparison
