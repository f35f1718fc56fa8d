"""Terminal run dashboard: one scorecard from a registry or event log.

The paper's core observable (Fig 3/Fig 5) is the *relationship between
query share and RTT per NS* — recursives send most queries to the
fastest authoritative, but every NS keeps receiving some.  This module
renders that relationship, plus cache and loss health, as a fixed-width
terminal scorecard.

Two input paths, one renderer:

* live — :func:`render_dashboard` on a :class:`MetricsRegistry`
  (``registry.as_dict()``) and optionally the tracer's retained traces;
* offline — :func:`render_dashboard_from_log` on a saved event log,
  using its final metrics snapshot and streamed traces.

Both feed the same dict-shaped metrics document, so a dashboard
rendered from a saved log matches the live registry exactly.
"""

from __future__ import annotations

import math

from .events import EventLog, EventLogError
from .sketch import quantile_from_buckets
from .tracing import Span

#: RTT percentiles shown in the per-NS table.
DASHBOARD_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _fmt(value: float | None, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"


def _table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _samples(metrics: dict, name: str) -> list[dict]:
    family = metrics.get(name)
    if not family:
        return []
    return list(family.get("samples", ()))


def _counter_total(metrics: dict, name: str, **match: str) -> float:
    total = 0.0
    for sample in _samples(metrics, name):
        labels = sample.get("labels", {})
        if all(labels.get(key) == value for key, value in match.items()):
            total += sample.get("value", 0.0)
    return total


def _histogram_quantile(sample: dict, q: float) -> float:
    """The q-quantile of one exported histogram sample (dict form)."""
    quantiles = sample.get("quantiles") or {}
    key = f"{q:g}"
    if key in quantiles and quantiles[key] is not None:
        return float(quantiles[key])
    # fall back to re-estimating from the cumulative bucket map
    buckets = sample.get("buckets") or {}
    finite = sorted(
        (float(upper), int(count))
        for upper, count in buckets.items()
        if upper not in ("+Inf", "inf")
    )
    total = int(sample.get("count", 0))
    bounds = [upper for upper, _ in finite]
    cumulative = [count for _, count in finite]
    counts = [
        count - (cumulative[index - 1] if index else 0)
        for index, count in enumerate(cumulative)
    ]
    return quantile_from_buckets(
        bounds, counts, total, q,
        minimum=sample.get("min"), maximum=sample.get("max"),
    )


# -- sections ---------------------------------------------------------------


def _per_ns_rows(metrics: dict) -> list[list[str]]:
    """Query share vs. RTT percentiles per (NS, site) — Fig 3's axis."""
    by_ns: dict[tuple[str, str], float] = {}
    for sample in _samples(metrics, "measurement_queries_total"):
        labels = sample.get("labels", {})
        key = (labels.get("ns", "?"), labels.get("site", "?"))
        by_ns[key] = by_ns.get(key, 0.0) + sample.get("value", 0.0)
    total = sum(by_ns.values())
    rtt_by_site = {
        sample.get("labels", {}).get("site", "?"): sample
        for sample in _samples(metrics, "measurement_rtt_ms")
    }
    rows = []
    for (ns, site), count in sorted(
        by_ns.items(), key=lambda kv: -kv[1]
    ):
        rtt = rtt_by_site.get(site)
        percentiles = (
            [_fmt(_histogram_quantile(rtt, q)) for q in DASHBOARD_QUANTILES]
            if rtt
            else ["-"] * len(DASHBOARD_QUANTILES)
        )
        share = 100.0 * count / total if total else 0.0
        rows.append([ns, site, str(int(count)), f"{share:.1f}%", *percentiles])
    return rows


def _cache_rows(metrics: dict) -> list[list[str]]:
    samples = _samples(metrics, "resolver_cache_total")
    by_result: dict[str, float] = {}
    for sample in samples:
        result = sample.get("labels", {}).get("result", "?")
        by_result[result] = by_result.get(result, 0.0) + sample.get("value", 0.0)
    total = sum(by_result.values())
    return [
        [
            result,
            str(int(count)),
            f"{100.0 * count / total:.1f}%" if total else "-",
        ]
        for result, count in sorted(by_result.items())
    ]


def _health_rows(metrics: dict) -> list[list[str]]:
    rows = []
    lost = _counter_total(metrics, "sim_lost_total")
    rows.append(["round trips lost", str(int(lost))])
    by_outcome: dict[str, float] = {}
    for sample in _samples(metrics, "resolver_exchanges_total"):
        outcome = sample.get("labels", {}).get("outcome", "?")
        by_outcome[outcome] = by_outcome.get(outcome, 0.0) + sample.get(
            "value", 0.0
        )
    for outcome, count in sorted(by_outcome.items()):
        rows.append([f"exchanges {outcome}", str(int(count))])
    failures = _counter_total(metrics, "measurement_failures_total")
    rows.append(["failed measurements", str(int(failures))])
    # Ring-buffer evictions mean the per-server forensic log is partial;
    # silent loss is the one thing a health panel may not hide.
    dropped = _counter_total(metrics, "authoritative_query_log_dropped_total")
    if dropped:
        rows.append(["query-log entries dropped", str(int(dropped))])
    return rows


def _slowest_rows(traces: list[Span], top: int) -> list[list[str]]:
    resolves = [
        root for root in traces
        if root.name == "resolver.resolve" and root.duration_s is not None
    ]
    resolves.sort(key=lambda span: -(span.duration_s or 0.0))
    rows = []
    for root in resolves[:top]:
        exchange_count = sum(
            1 for span in root.trace if span.name == "resolver.exchange"
        )
        auth = root.find("auth.query")
        rows.append([
            f"{(root.duration_s or 0.0) * 1000.0:.1f}",
            str(root.attributes.get("qname", ""))[:40],
            str(root.attributes.get("cache", "")),
            str(exchange_count),
            str(auth.attributes.get("server", "")) if auth else "",
        ])
    return rows


def render_dashboard(
    metrics: dict,
    traces: list[Span] | None = None,
    title: str = "Run dashboard",
    top_slowest: int = 5,
) -> str:
    """Render the scorecard from a metrics document (``as_dict`` form).

    ``traces`` (root spans, live or rebuilt from an event log) feed the
    top-N slowest-query table; omit to skip that section.
    """
    sections = []
    queries = _counter_total(metrics, "measurement_queries_total")
    header = f"=== {title} ==="
    sections.append(
        f"{header}\nmeasured queries: {int(queries)}"
    )
    ns_rows = _per_ns_rows(metrics)
    if ns_rows:
        sections.append(_table(
            ["NS", "site", "queries", "share",
             "p50(ms)", "p90(ms)", "p95(ms)", "p99(ms)"],
            ns_rows,
            title="Per-NS query share vs. resolver-observed RTT (Fig 3)",
        ))
    cache_rows = _cache_rows(metrics)
    if cache_rows:
        sections.append(_table(
            ["result", "count", "share"], cache_rows,
            title="Recursive record-cache outcomes",
        ))
    health_rows = _health_rows(metrics)
    if health_rows:
        sections.append(_table(
            ["signal", "count"], health_rows, title="Loss and failure",
        ))
    if traces:
        slow_rows = _slowest_rows(traces, top_slowest)
        if slow_rows:
            sections.append(_table(
                ["ms", "qname", "cache", "exchanges", "answered by"],
                slow_rows,
                title=f"Slowest {len(slow_rows)} resolutions (virtual time)",
            ))
    return "\n\n".join(sections)


def render_dashboard_from_log(
    log: EventLog | str, top_slowest: int = 5
) -> str:
    """Render the scorecard from a saved event log (path or loaded)."""
    if not isinstance(log, EventLog):
        log = EventLog.load(log)
    metrics = log.last_metrics()
    if metrics is None:
        raise EventLogError(
            f"{log.path}: no metrics snapshot in the event log "
            "(was the run finalized?)"
        )
    meta = log.run_meta() or {}
    title = "Run dashboard"
    if meta:
        title = (
            f"Run dashboard — {meta.get('domain', '?')} "
            f"seed={meta.get('seed', '?')} probes={meta.get('num_probes', '?')}"
        )
    return render_dashboard(
        metrics,
        traces=log.traces(),
        title=title,
        top_slowest=top_slowest,
    )


__all__ = [
    "DASHBOARD_QUANTILES",
    "render_dashboard",
    "render_dashboard_from_log",
]
