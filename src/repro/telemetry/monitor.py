"""The live campaign monitor behind ``repro-dns top``.

A :class:`CampaignMonitor` is a streaming reducer over an event log:
feed it batches of typed events (from an
:class:`~repro.telemetry.events.EventLogFollower` tailing a growing
file, or a saved log replayed in one gulp) and it maintains the
operator's view of a running campaign:

* throughput — measured queries, answer rate, virtual QPS;
* latency — p50/p99 of the answering exchange via streaming P² sketches
  (no sample retention, so a million-query campaign costs the same as
  a hundred);
* per-NS query share — the paper's core observable, live;
* per-shard progress — from the deterministic ``shard.heartbeat``
  notes the parallel engine's workers emit (excluded from the
  canonical merged log, so they never disturb serial≡parallel byte
  identity), with a wall-clock ETA;
* the fault timeline — which injected windows are open *now*;
* the scorecard, once the closing metrics snapshot arrives — per-NS
  query share against resolver-observed RTT quantiles (the paper's
  Fig 3 relationship), record-cache outcomes, loss and failure counts.

Rendering is pure text (:meth:`render` returns one frame); the CLI
decides how often to paint and whether to clear the screen.  The
wall clock used for ETA is injected, so tests drive it manually.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .analysis import _fmt, _table, fault_windows_from_notes
from .events import MetricsSnapshot, Note, RunMeta, TraceEvent
from .sketch import EXPORTED_QUANTILES, P2Quantile
from .slo import _answering_exchange

#: heartbeat note name — must match what AtlasPlatform.measure emits.
HEARTBEAT_NOTE = "shard.heartbeat"


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


@dataclass
class ShardProgress:
    """Latest heartbeat of one shard."""

    shard: int
    tick: int = 0
    ticks: int = 0
    observations: int = 0
    vantage_points: int = 0
    virtual_s: float = 0.0

    @property
    def fraction(self) -> float:
        return self.tick / self.ticks if self.ticks else 0.0


class CampaignMonitor:
    """Streaming state + renderer for one campaign's event stream."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self.meta: dict = {}
        self.queries = 0
        self.answered = 0
        self.p50 = P2Quantile(0.5)
        self.p99 = P2Quantile(0.99)
        self.ns_counts: dict[str, int] = {}
        self.shards: dict[int, ShardProgress] = {}
        self.fault_notes: list[Note] = []
        self.virtual_now = 0.0
        self.virtual_start: float | None = None
        self.finished = False
        self.events_seen = 0
        #: the closing metrics snapshot (``MetricsRegistry.as_dict`` form)
        self.metrics: dict = {}
        self._wall_start: float | None = None

    # -- ingestion ----------------------------------------------------------

    def consume(self, events: list) -> int:
        """Fold a batch of typed events into the view; returns its size."""
        if events and self._wall_start is None:
            self._wall_start = self._clock()
        for event in events:
            self.events_seen += 1
            if isinstance(event, TraceEvent):
                self._consume_trace(event)
            elif isinstance(event, Note):
                self._consume_note(event)
            elif isinstance(event, RunMeta):
                self.meta = dict(event.run)
                if event.at is not None:
                    self.virtual_now = max(self.virtual_now, float(event.at))
            elif isinstance(event, MetricsSnapshot):
                # The final registry snapshot is the run's closing act.
                self.finished = True
                if event.at is not None:
                    self.virtual_now = max(self.virtual_now, float(event.at))
                self.metrics = event.metrics
        return len(events)

    def _consume_trace(self, event: TraceEvent) -> None:
        root = event.root
        if root.name != "resolver.resolve":
            return
        self.queries += 1
        if self.virtual_start is None:
            self.virtual_start = root.start
        if root.end is not None:
            self.virtual_now = max(self.virtual_now, root.end)
        if root.attributes.get("rcode") == "NOERROR":
            self.answered += 1
        answer = _answering_exchange(root)
        if answer is not None:
            ns = str(answer.attributes.get("ns", "?"))
            self.ns_counts[ns] = self.ns_counts.get(ns, 0) + 1
            rtt = answer.attributes.get("rtt_ms")
            if rtt is not None:
                self.p50.observe(float(rtt))
                self.p99.observe(float(rtt))

    def _consume_note(self, note: Note) -> None:
        # fault.* notes carry the run's a-priori timeline: their stamps
        # are *future* virtual times, so they never advance the clock.
        if note.at is not None and note.name == HEARTBEAT_NOTE:
            self.virtual_now = max(self.virtual_now, float(note.at))
        if note.name == HEARTBEAT_NOTE:
            data = note.data
            shard = int(data.get("shard", 0))
            self.shards[shard] = ShardProgress(
                shard=shard,
                tick=int(data.get("tick", 0)),
                ticks=int(data.get("ticks", 0)),
                observations=int(data.get("observations", 0)),
                vantage_points=int(data.get("vantage_points", 0)),
                virtual_s=float(data.get("virtual_s", 0.0)),
            )
        elif note.name in ("fault.start", "fault.end"):
            self.fault_notes.append(note)

    # -- derived ------------------------------------------------------------

    @property
    def answer_rate(self) -> float:
        return self.answered / self.queries if self.queries else 1.0

    @property
    def virtual_qps(self) -> float:
        if self.virtual_start is None:
            return 0.0
        elapsed = self.virtual_now - self.virtual_start
        return self.queries / elapsed if elapsed > 0 else 0.0

    @property
    def progress(self) -> float | None:
        """Overall completion from heartbeats (None before any)."""
        total = sum(p.ticks for p in self.shards.values())
        if not total:
            return None
        return sum(p.tick for p in self.shards.values()) / total

    def eta_s(self) -> float | None:
        """Wall-clock remaining estimate from heartbeat progress."""
        fraction = self.progress
        if (fraction is None or fraction <= 0.0
                or self._wall_start is None or self.finished):
            return None
        if fraction >= 1.0:
            return 0.0
        elapsed = self._clock() - self._wall_start
        return elapsed * (1.0 - fraction) / fraction

    def active_faults(self) -> list:
        """Ground-truth windows open at the current virtual time."""
        windows = fault_windows_from_notes(self.fault_notes)
        return [
            w for w in windows if w.start <= self.virtual_now < w.end
        ]

    # -- rendering ----------------------------------------------------------

    def render(self, title: str = "repro-dns top") -> str:
        meta = self.meta
        state = "finished" if self.finished else "running"
        lines = [
            f"=== {title} — {state} ===",
            (
                f"domain={meta.get('domain', '?')} "
                f"probes={meta.get('num_probes', '?')} "
                f"seed={meta.get('seed', '?')} "
                f"scenario={meta.get('scenario') or '-'}"
            ),
            (
                f"virtual t={self.virtual_now:g}s  "
                f"queries={self.queries}  "
                f"answer rate={self.answer_rate * 100.0:.1f}%  "
                f"QPS(virtual)={self.virtual_qps:.1f}"
            ),
        ]
        p50 = self.p50.value
        p99 = self.p99.value
        lines.append(
            "rtt p50="
            + (f"{p50:.1f}ms" if not math.isnan(p50) else "-")
            + "  p99="
            + (f"{p99:.1f}ms" if not math.isnan(p99) else "-")
        )
        sections = ["\n".join(lines)]

        if self.metrics:
            # The closing snapshot supersedes the streamed share table.
            sections.extend(self._scorecard())
        elif self.ns_counts:
            total = sum(self.ns_counts.values())
            rows = [
                [
                    ns, str(count), f"{100.0 * count / total:.1f}%",
                    _bar(count / total),
                ]
                for ns, count in sorted(
                    self.ns_counts.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            sections.append(_table(
                ["NS", "answers", "share", ""], rows,
                title="Per-NS query share",
            ))

        if self.shards:
            eta = self.eta_s()
            rows = [
                [
                    str(p.shard),
                    f"{p.tick}/{p.ticks}",
                    f"{100.0 * p.fraction:.0f}%",
                    _bar(p.fraction),
                    str(p.observations),
                    str(p.vantage_points),
                ]
                for p in sorted(self.shards.values(), key=lambda p: p.shard)
            ]
            progress = self.progress or 0.0
            title_line = (
                f"Shard progress — {100.0 * progress:.0f}% overall"
                + (f", ETA {eta:.0f}s" if eta is not None else "")
            )
            sections.append(_table(
                ["shard", "tick", "done", "", "obs", "VPs"], rows,
                title=title_line,
            ))

        active = self.active_faults()
        if active:
            rows = [
                [w.label, w.address,
                 f"{w.start:g}-{w.end:g}s" if w.end != math.inf
                 else f"{w.start:g}s-"]
                for w in active
            ]
            sections.append(_table(
                ["fault", "address", "window"], rows,
                title="Active fault windows (virtual time)",
            ))

        return "\n\n".join(sections)

    def _scorecard(self) -> list[str]:
        """The finished frame's sections, from the closing metrics snapshot."""
        metrics = self.metrics
        sections = []
        ns_rows = _per_ns_rows(metrics)
        if ns_rows:
            sections.append(_table(
                ["NS", "site", "queries", "share",
                 "p50(ms)", "p90(ms)", "p95(ms)", "p99(ms)"],
                ns_rows,
                title="Per-NS query share vs. resolver-observed RTT (Fig 3)",
            ))
        by_result = _totals_by_label(metrics, "resolver_cache_total", "result")
        total = sum(by_result.values())
        if by_result:
            sections.append(_table(
                ["result", "count", "share"],
                [
                    [result, str(int(count)),
                     f"{100.0 * count / total:.1f}%" if total else "-"]
                    for result, count in sorted(by_result.items())
                ],
                title="Recursive record-cache outcomes",
            ))
        health = [["round trips lost", _counter_total(metrics, "sim_lost_total")]]
        health += [
            [f"exchanges {outcome}", count]
            for outcome, count in sorted(_totals_by_label(
                metrics, "resolver_exchanges_total", "outcome"
            ).items())
        ]
        health.append([
            "failed measurements",
            _counter_total(metrics, "measurement_failures_total"),
        ])
        sections.append(_table(
            ["signal", "count"],
            [[signal, str(int(count))] for signal, count in health],
            title="Loss and failure",
        ))
        return sections


# -- the scorecard (closing metrics snapshot) ---------------------------------


def _samples(metrics: dict, name: str) -> list[dict]:
    family = metrics.get(name)
    if not family:
        return []
    return list(family.get("samples", ()))


def _counter_total(metrics: dict, name: str) -> float:
    return sum(sample.get("value", 0.0) for sample in _samples(metrics, name))


def _totals_by_label(metrics: dict, name: str, label: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for sample in _samples(metrics, name):
        key = sample.get("labels", {}).get(label, "?")
        totals[key] = totals.get(key, 0.0) + sample.get("value", 0.0)
    return totals


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
    for (ns, site), count in sorted(by_ns.items(), key=lambda kv: -kv[1]):
        # every snapshot carries these (null while a histogram is empty)
        quantiles = rtt_by_site.get(site, {}).get("quantiles", {})
        percentiles = [_fmt(quantiles.get(f"{q:g}")) for q in EXPORTED_QUANTILES]
        share = 100.0 * count / total if total else 0.0
        rows.append([ns, site, str(int(count)), f"{share:.1f}%", *percentiles])
    return rows


def replay_monitor(events: list, clock=time.monotonic) -> CampaignMonitor:
    """A monitor fed one whole event list (``top`` on a saved log)."""
    monitor = CampaignMonitor(clock=clock)
    monitor.consume(events)
    return monitor


__all__ = [
    "CampaignMonitor",
    "HEARTBEAT_NOTE",
    "ShardProgress",
    "replay_monitor",
]
