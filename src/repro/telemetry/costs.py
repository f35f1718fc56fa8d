"""Deterministic per-query cost ledger.

Where :class:`~repro.telemetry.profiling.RunProfiler` measures wall-clock
phase time (non-deterministic, excluded from canonical merged logs), the
cost ledger counts *work events*: wire encodes/decodes, response-template
hits and misses, RNG draws, cache lookups, fault-plan evaluations, and
measurement timer ticks.  Counts are pure integers driven entirely by the
seeded simulation, so they are reproducible bit-for-bit and — like every
other reducer in this repo — mergeable across parallel shards: a serial
run and a K-worker run over the same shard partition produce the *same
ledger, byte for byte* (CI ``cmp``-enforces this on the exported JSON).

Normalised per query, the ledger is the "per-event cost" baseline: it
tells you *how many* codec, RNG, cache, fault, and kernel-event
operations one observation costs, while ``cProfile`` and the benchmark
suite's per-layer metrics (docs/performance.md §1) tell you how much
*time* is spent on them.

Hot-path discipline: the ledger is deliberately **not** part of
``Telemetry.enabled`` — a costs-only run records no spans or metrics.
Instrumented sites hoist ``costs = telemetry.costs`` and guard on
``costs.enabled`` once, so a disabled run pays one attribute check.
"""

from __future__ import annotations

import json
from pathlib import Path

#: schema tag stamped into every export; bump on incompatible change.
COSTS_SCHEMA = "repro-cost-ledger/1"

#: canonical counter vocabulary (informative — the ledger accepts any
#: name, but instrumented sites stick to these).
COUNTERS = (
    "decode",         # wire -> Message / memoised response decodes
    "encode",         # Message/template -> wire
    "template_hit",   # server answered from the response-template cache
    "template_miss",  # a query the fast path covers, no certified template
    "rng_draw",       # seeded stochastic decision points consumed
    "cache_lookup",   # resolver record-cache probes (incl. negative)
    "fault_eval",     # FaultPlan.active() evaluations
    "timer_event",    # measurement ticks (virtual-time timer firings)
    "sched_event",    # discrete events executed by the event kernel
    "query",          # resolutions issued — the per-query denominator
    "ns_fetch",       # glueless-NS sub-resolutions (NXNSAttack amplification)
    "attack_query",   # bot queries injected by an adversarial campaign
    "rrl_check",      # authoritative RRL bucket evaluations
    "rrl_slip",       # RRL slipped (truncated) responses
    "rrl_drop",       # RRL dropped responses
)


class _LedgerPhase:
    """Context manager scoping counts to a named phase."""

    __slots__ = ("_ledger", "_name", "_previous")

    def __init__(self, ledger: "CostLedger", name: str):
        self._ledger = ledger
        self._name = name
        self._previous = None

    def __enter__(self) -> "_LedgerPhase":
        self._previous = self._ledger._enter_phase(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._ledger._exit_phase(self._previous)


class CostLedger:
    """Integer work counters, aggregated per phase, mergeable."""

    enabled = True

    __slots__ = ("phases", "_current", "_phase_name")

    def __init__(self):
        #: phase name -> {counter name -> int}
        self.phases: dict[str, dict[str, int]] = {}
        self._phase_name = "run"
        self._current: dict[str, int] = {}
        self.phases["run"] = self._current

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        current = self._current
        current[name] = current.get(name, 0) + amount

    def phase(self, name: str) -> _LedgerPhase:
        """Scope counts: ``with ledger.phase("experiment.measure"): ...``"""
        return _LedgerPhase(self, name)

    def _enter_phase(self, name: str) -> str:
        previous = self._phase_name
        self._phase_name = name
        self._current = self.phases.setdefault(name, {})
        return previous

    def _exit_phase(self, previous: str) -> None:
        self._phase_name = previous
        self._current = self.phases.setdefault(previous, {})

    # -- reduction ---------------------------------------------------------

    def merge(self, other) -> None:
        """Fold another ledger (or its ``as_dict()`` export) into this one.

        Addition is commutative and integer-exact, so merge order cannot
        perturb the result — the serial≡K-worker guarantee rests on this.
        """
        if isinstance(other, CostLedger):
            phases = other.phases
        elif isinstance(other, dict):
            phases = other.get("phases", other)
        else:
            raise TypeError(f"cannot merge {type(other).__name__} into CostLedger")
        for phase_name, counters in phases.items():
            into = self.phases.setdefault(phase_name, {})
            for name, amount in counters.items():
                into[name] = into.get(name, 0) + int(amount)
        self._current = self.phases.setdefault(self._phase_name, {})

    # -- export ------------------------------------------------------------

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for counters in self.phases.values():
            for name, amount in counters.items():
                out[name] = out.get(name, 0) + amount
        return dict(sorted(out.items()))

    @property
    def queries(self) -> int:
        return self.totals().get("query", 0)

    def as_dict(self) -> dict:
        return {
            "schema": COSTS_SCHEMA,
            "queries": self.queries,
            "totals": self.totals(),
            "phases": {
                name: dict(sorted(counters.items()))
                for name, counters in sorted(self.phases.items())
                if counters
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON — sorted keys, so equal ledgers are equal bytes."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n")
        return path

    def to_events(self) -> list:
        """The ledger as one event-log record (kind ``costs``)."""
        from .events import CostsEvent

        return [CostsEvent(costs=self.as_dict())]

    @classmethod
    def from_dict(cls, data: dict) -> "CostLedger":
        ledger = cls()
        ledger.merge(data)
        return ledger

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Per-query decomposition table plus the per-phase breakdown."""
        queries = self.queries
        lines = [f"=== Cost ledger — {queries} queries ==="]
        lines.append("")
        lines.append(f"{'counter':<16} {'total':>12} {'per-query':>10}")
        lines.append(f"{'-' * 16} {'-' * 12} {'-' * 10}")
        for name, amount in self.totals().items():
            if name == "query":
                continue
            per = f"{amount / queries:.3f}" if queries else "-"
            lines.append(f"{name:<16} {amount:>12} {per:>10}")
        interesting = [
            (name, counters)
            for name, counters in sorted(self.phases.items())
            if counters
        ]
        if len(interesting) > 1:
            lines.append("")
            lines.append("Per-phase totals")
            for name, counters in interesting:
                total = sum(
                    amount for key, amount in counters.items() if key != "query"
                )
                lines.append(f"  {name:<22} {total:>12} events")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CostLedger(queries={self.queries})"


__all__ = [
    "COSTS_SCHEMA",
    "COUNTERS",
    "CostLedger",
]
