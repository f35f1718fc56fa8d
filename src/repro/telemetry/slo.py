"""Declarative SLOs with burn-rate evaluation over virtual-time windows.

An :class:`SLO` names an objective over the measurement stream —
answer rate, p99 RTT, SERVFAIL ratio, per-NS share skew — and a
rolling window width.  :func:`evaluate` slices a run's query traces
into fixed virtual-time windows, computes the objective's value in
each, and flags windows whose *burn rate* crosses the SLO's threshold:

burn rate
    For ratio objectives (answer rate, SERVFAIL ratio) the classic SRE
    definition: the fraction of the error budget the window consumed,
    ``bad_fraction / (1 - objective)`` — burn 1.0 means errors arrive
    exactly at the budgeted rate, 2.0 means twice it.  For threshold
    objectives (p99 RTT, share skew) the normalized excess
    ``value / objective`` — burn 1.0 sits exactly at the limit.

Consecutive burning windows merge into :class:`Alert` intervals, and
:func:`score_alerts` closes the loop with the fault engine: given the
ground-truth ``fault.start``/``fault.end`` notes a scenario left in
the event log, it reports detection latency, precision, and recall of
the alerts — the figure of merit ``examples/fault_detection_study.py``
prints.

All evaluation is deterministic: windows are fixed (no sliding
phase), traces are consumed in log order, and the per-window p99 uses
the streaming :class:`~repro.telemetry.sketch.P2Quantile` estimator
fed in that same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analysis import EXCHANGE_SPAN, RESOLVE_SPAN, FaultWindow, _fmt, _table
from .sketch import P2Quantile
from .tracing import Span

#: objective kinds and their comparison direction.
SLO_KINDS = ("answer_rate", "p99_rtt_ms", "servfail_ratio", "share_skew")


class SLOError(ValueError):
    """An SLO definition is malformed."""


@dataclass(frozen=True)
class SLO:
    """One declarative objective over the measurement stream.

    ``objective`` is a *minimum* for ``answer_rate`` and a *maximum*
    for the other kinds.  ``burn_threshold`` is the burn rate at which
    a window counts as anomalous (1.0 = exactly at budget).
    """

    name: str
    kind: str
    objective: float
    window_s: float = 120.0
    burn_threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in SLO_KINDS:
            raise SLOError(
                f"unknown SLO kind {self.kind!r}; expected one of {SLO_KINDS}"
            )
        if self.window_s <= 0:
            raise SLOError(f"window_s must be positive, got {self.window_s}")
        if self.kind in ("answer_rate",) and not 0.0 < self.objective < 1.0:
            raise SLOError(
                f"{self.kind} objective must be inside (0, 1), "
                f"got {self.objective}"
            )
        if self.objective <= 0 and self.kind != "answer_rate":
            raise SLOError(
                f"{self.kind} objective must be positive, got {self.objective}"
            )
        if self.burn_threshold <= 0:
            raise SLOError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "window_s": self.window_s,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SLO":
        try:
            return cls(
                name=str(data["name"]),
                kind=str(data["kind"]),
                objective=float(data["objective"]),
                window_s=float(data.get("window_s", 120.0)),
                burn_threshold=float(data.get("burn_threshold", 1.0)),
            )
        except KeyError as exc:
            raise SLOError(f"SLO spec missing field {exc}") from None


def default_slos(window_s: float = 120.0) -> tuple[SLO, ...]:
    """The stock SLO set ``repro-dns slo`` evaluates without a spec.

    Thresholds are tuned to the testbed's healthy operating point: a
    clean campaign stays under every one, and the bundled fault
    scenarios (NS outage, brownout, loss ramp) push at least one over.
    """
    return (
        SLO("answer-rate", "answer_rate", objective=0.95, window_s=window_s),
        SLO("p99-rtt", "p99_rtt_ms", objective=900.0, window_s=window_s),
        SLO("servfail-ratio", "servfail_ratio", objective=0.05,
            window_s=window_s),
        SLO("ns-share-skew", "share_skew", objective=0.90, window_s=window_s),
    )


# -- windowing --------------------------------------------------------------


@dataclass
class WindowStats:
    """Aggregates of one fixed virtual-time window."""

    index: int
    start: float
    end: float
    total: int = 0
    answered: int = 0
    servfail: int = 0
    p99: P2Quantile = field(default_factory=lambda: P2Quantile(0.99))
    ns_counts: dict[str, int] = field(default_factory=dict)

    def observe_trace(self, root: Span) -> None:
        self.total += 1
        rcode = root.attributes.get("rcode")
        if rcode == "NOERROR":
            self.answered += 1
        else:
            self.servfail += 1
        answer = _answering_exchange(root)
        if answer is not None:
            ns = str(answer.attributes.get("ns", "?"))
            self.ns_counts[ns] = self.ns_counts.get(ns, 0) + 1
            rtt = answer.attributes.get("rtt_ms")
            if rtt is not None:
                self.p99.observe(float(rtt))

    @property
    def answer_rate(self) -> float:
        return self.answered / self.total if self.total else 1.0

    @property
    def servfail_ratio(self) -> float:
        return self.servfail / self.total if self.total else 0.0

    @property
    def p99_rtt_ms(self) -> float:
        return self.p99.value

    def share_skew(self, addresses: tuple[str, ...]) -> float:
        """max share − min share over the run's NS set (1.0 = one NS
        took everything, small = balanced)."""
        answered = sum(self.ns_counts.get(a, 0) for a in addresses)
        if not answered or not addresses:
            return 0.0
        shares = [self.ns_counts.get(a, 0) / answered for a in addresses]
        return max(shares) - min(shares)


def _answering_exchange(root: Span) -> Span | None:
    """The exchange that produced the answer: the last ok one."""
    answer = None
    for span in root.trace:
        if (span.name == EXCHANGE_SPAN
                and span.attributes.get("outcome") == "ok"):
            answer = span
    return answer


def windows_from_traces(
    roots: list[Span], window_s: float
) -> list[WindowStats]:
    """Slice query traces into fixed windows by root start time.

    Windows cover [0, last trace] contiguously — intermediate windows
    with no traffic still appear (empty windows are healthy, not
    missing data).
    """
    if window_s <= 0:
        raise SLOError(f"window_s must be positive, got {window_s}")
    resolves = [r for r in roots if r.name == RESOLVE_SPAN]
    if not resolves:
        return []
    last = max(int(r.start // window_s) for r in resolves)
    windows = [
        WindowStats(index=i, start=i * window_s, end=(i + 1) * window_s)
        for i in range(last + 1)
    ]
    for root in resolves:
        windows[int(root.start // window_s)].observe_trace(root)
    return windows


# -- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class WindowVerdict:
    """One SLO evaluated over one window."""

    slo: str
    index: int
    start: float
    end: float
    value: float
    burn_rate: float
    burning: bool


@dataclass(frozen=True)
class Alert:
    """A maximal run of consecutive burning windows for one SLO."""

    slo: str
    start: float
    end: float
    windows: int
    peak_burn: float


def _burn(slo: SLO, value: float) -> float:
    if math.isnan(value):
        return 0.0
    if slo.kind == "answer_rate":
        budget = 1.0 - slo.objective
        return (1.0 - value) / budget if budget > 0 else math.inf
    if slo.kind == "servfail_ratio":
        return value / slo.objective
    # threshold kinds: p99_rtt_ms, share_skew
    return value / slo.objective


def evaluate(
    slo: SLO,
    windows: list[WindowStats],
    addresses: tuple[str, ...] = (),
) -> list[WindowVerdict]:
    """Judge every window against one SLO.

    ``addresses`` is the zone's NS set, needed only by ``share_skew``
    (a window must be skew-scored against the *full* set, or an NS
    that answered nothing would silently drop out of the comparison).
    Empty windows never burn: no traffic is no evidence of harm.
    """
    verdicts = []
    for window in windows:
        if window.total == 0:
            value, burn = math.nan, 0.0
        elif slo.kind == "answer_rate":
            value = window.answer_rate
            burn = _burn(slo, value)
        elif slo.kind == "servfail_ratio":
            value = window.servfail_ratio
            burn = _burn(slo, value)
        elif slo.kind == "p99_rtt_ms":
            value = window.p99_rtt_ms
            burn = _burn(slo, value)
        else:  # share_skew
            value = window.share_skew(addresses)
            burn = _burn(slo, value)
        verdicts.append(WindowVerdict(
            slo=slo.name,
            index=window.index,
            start=window.start,
            end=window.end,
            value=value,
            burn_rate=burn,
            burning=burn >= slo.burn_threshold,
        ))
    return verdicts


def burn_alerts(verdicts: list[WindowVerdict]) -> list[Alert]:
    """Merge consecutive burning windows into alert intervals."""
    alerts: list[Alert] = []
    run: list[WindowVerdict] = []
    for verdict in verdicts:
        if verdict.burning:
            run.append(verdict)
            continue
        if run:
            alerts.append(_close_alert(run))
            run = []
    if run:
        alerts.append(_close_alert(run))
    return alerts


def _close_alert(run: list[WindowVerdict]) -> Alert:
    return Alert(
        slo=run[0].slo,
        start=run[0].start,
        end=run[-1].end,
        windows=len(run),
        peak_burn=max(v.burn_rate for v in run),
    )


# -- scoring against ground truth -------------------------------------------


@dataclass(frozen=True)
class DetectionScore:
    """How well a set of burn alerts tracked the injected faults."""

    slo: str
    alerts: int
    fault_windows: int
    detected: int
    true_positive_alerts: int
    mean_detection_latency_s: float | None
    precision: float | None
    recall: float | None

    def render(self) -> str:
        latency = (
            f"{self.mean_detection_latency_s:.0f}s"
            if self.mean_detection_latency_s is not None else "-"
        )
        precision = (
            f"{self.precision:.2f}" if self.precision is not None else "-"
        )
        recall = f"{self.recall:.2f}" if self.recall is not None else "-"
        return (
            f"{self.slo}: detected {self.detected}/{self.fault_windows} "
            f"fault(s) via {self.alerts} alert(s); latency {latency}, "
            f"precision {precision}, recall {recall}"
        )


def score_alerts(
    slo_name: str,
    alerts: list[Alert],
    faults: list[FaultWindow],
    slack_s: float = 0.0,
) -> DetectionScore:
    """Detection latency / precision / recall of alerts vs. ground truth.

    A fault counts as *detected* when any alert overlaps
    ``[fault.start, fault.end + slack_s)`` — the slack absorbs effects
    that outlive the fault itself (SRTT penalties, negative caches).
    Detection latency is ``max(0, alert.start − fault.start)`` of the
    earliest overlapping alert, averaged over detected faults.  An
    alert overlapping no (slack-padded) fault is a false positive.
    """
    relevant = [a for a in alerts if a.slo == slo_name]

    def overlaps(alert: Alert, fault: FaultWindow) -> bool:
        return alert.start < fault.end + slack_s and alert.end > fault.start

    detected = 0
    latencies: list[float] = []
    for fault in faults:
        hits = [a for a in relevant if overlaps(a, fault)]
        if hits:
            detected += 1
            first = min(hits, key=lambda a: a.start)
            latencies.append(max(0.0, first.start - fault.start))
    true_positives = sum(
        1 for alert in relevant if any(overlaps(alert, f) for f in faults)
    )
    return DetectionScore(
        slo=slo_name,
        alerts=len(relevant),
        fault_windows=len(faults),
        detected=detected,
        true_positive_alerts=true_positives,
        mean_detection_latency_s=(
            sum(latencies) / len(latencies) if latencies else None
        ),
        precision=(
            true_positives / len(relevant) if relevant else None
        ),
        recall=(detected / len(faults) if faults else None),
    )


# -- the report -------------------------------------------------------------


@dataclass
class SLOReport:
    """Everything ``repro-dns slo`` computes for one log."""

    slos: list[SLO]
    windows: list[WindowStats]
    verdicts: dict[str, list[WindowVerdict]]
    alerts: dict[str, list[Alert]]
    scores: dict[str, DetectionScore]
    faults: list[FaultWindow]


def evaluate_slos(
    roots: list[Span],
    slos: tuple[SLO, ...] | list[SLO],
    faults: list[FaultWindow] | None = None,
    addresses: tuple[str, ...] = (),
    slack_s: float | None = None,
) -> SLOReport:
    """Windowing + evaluation + alerting + (optional) fault scoring.

    Every SLO in one report shares one window width (the first SLO's);
    mixing widths would make the per-window tables unreadable and buys
    nothing — pass separate calls for genuinely different horizons.
    """
    slos = list(slos)
    if not slos:
        raise SLOError("no SLOs to evaluate")
    window_s = slos[0].window_s
    for slo in slos[1:]:
        if slo.window_s != window_s:
            raise SLOError(
                "all SLOs in one report must share window_s "
                f"({slo.name} has {slo.window_s}, expected {window_s})"
            )
    if not addresses:
        addresses = _addresses_from_traces(roots)
    windows = windows_from_traces(roots, window_s)
    faults = list(faults or [])
    verdicts: dict[str, list[WindowVerdict]] = {}
    alerts: dict[str, list[Alert]] = {}
    scores: dict[str, DetectionScore] = {}
    slack = window_s if slack_s is None else slack_s
    for slo in slos:
        verdicts[slo.name] = evaluate(slo, windows, addresses)
        alerts[slo.name] = burn_alerts(verdicts[slo.name])
        if faults:
            scores[slo.name] = score_alerts(
                slo.name, alerts[slo.name], faults, slack_s=slack
            )
    return SLOReport(
        slos=slos, windows=windows, verdicts=verdicts,
        alerts=alerts, scores=scores, faults=faults,
    )


def _addresses_from_traces(roots: list[Span]) -> tuple[str, ...]:
    """Every NS address any exchange targeted, sorted."""
    addresses = set()
    for root in roots:
        if root.name != RESOLVE_SPAN:
            continue
        for span in root.trace:
            if span.name == EXCHANGE_SPAN:
                addresses.add(str(span.attributes.get("ns", "?")))
    return tuple(sorted(addresses))


def render_slo_report(report: SLOReport) -> str:
    """Fixed-width text form of one report."""
    sections: list[str] = []
    window_s = report.slos[0].window_s
    sections.append(
        f"=== SLO report — {len(report.windows)} windows of "
        f"{window_s:g}s ==="
    )
    slo_rows = [
        [
            slo.name, slo.kind, f"{slo.objective:g}",
            f"{slo.burn_threshold:g}",
            str(len(report.alerts.get(slo.name, []))),
            str(sum(1 for v in report.verdicts[slo.name] if v.burning)),
        ]
        for slo in report.slos
    ]
    sections.append(_table(
        ["SLO", "kind", "objective", "burn>=", "alerts", "burning windows"],
        slo_rows,
        title="Objectives",
    ))
    alert_rows = [
        [
            alert.slo, f"{alert.start:g}-{alert.end:g}s",
            str(alert.windows), f"{alert.peak_burn:.2f}",
        ]
        for slo in report.slos
        for alert in report.alerts.get(slo.name, [])
    ]
    if alert_rows:
        sections.append(_table(
            ["SLO", "interval", "windows", "peak burn"],
            alert_rows,
            title="Burn alerts",
        ))
    else:
        sections.append("Burn alerts\n(none — every window within budget)")
    if report.faults:
        fault_rows = [
            [w.label, f"{w.start:g}-{w.end:g}s", w.address]
            for w in report.faults
        ]
        sections.append(_table(
            ["fault", "window", "address"], fault_rows,
            title="Ground-truth fault windows (from the event log)",
        ))
        score_lines = [
            report.scores[slo.name].render()
            for slo in report.slos
            if slo.name in report.scores
        ]
        sections.append(
            "Detection vs. ground truth\n" + "\n".join(score_lines)
        )
    burning = {
        v.index
        for verdicts in report.verdicts.values()
        for v in verdicts if v.burning
    }
    if burning:
        rows = []
        for window in report.windows:
            if window.index not in burning:
                continue
            rows.append([
                f"{window.start:g}-{window.end:g}s",
                str(window.total),
                f"{window.answer_rate:.3f}",
                f"{window.servfail_ratio:.3f}",
                _fmt(window.p99_rtt_ms),
            ])
        sections.append(_table(
            ["window", "queries", "answer rate", "servfail", "p99(ms)"],
            rows,
            title="Anomalous windows",
        ))
    return "\n\n".join(sections)


def load_slo_spec(path) -> list[SLO]:
    """Read an SLO spec file: a JSON list of SLO dicts."""
    import json
    from pathlib import Path

    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SLOError(f"{path}: unreadable SLO spec ({exc})") from None
    if isinstance(data, dict):
        data = data.get("slos", [])
    if not isinstance(data, list) or not data:
        raise SLOError(f"{path}: expected a non-empty JSON list of SLOs")
    return [SLO.from_dict(item) for item in data]


__all__ = [
    "Alert",
    "DetectionScore",
    "SLO",
    "SLOError",
    "SLOReport",
    "SLO_KINDS",
    "WindowStats",
    "WindowVerdict",
    "burn_alerts",
    "default_slos",
    "evaluate",
    "evaluate_slos",
    "load_slo_spec",
    "render_slo_report",
    "score_alerts",
    "windows_from_traces",
]
