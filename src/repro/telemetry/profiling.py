"""Run profiling: wall-clock phase timers and counters for the simulator.

Where the registry and tracer measure the *simulated* system,
:class:`RunProfiler` measures the *simulator itself*: phase timers and
component counters (deploy, build VPs, measure, analyze).  Every run
carries the result as ``ExperimentResult.profile``; the benchmark suite
reads its phases.  Wall-clock numbers never enter an event log: a log
holds only what the seeded simulation determines.  The disabled twin,
:class:`~repro.telemetry.bundle.NullProfiler`, lives beside the bundle.

Function-level questions go to ``cProfile`` and layer-level ones to
``benchmarks/suite`` (docs/performance.md §1).
"""

from __future__ import annotations

import time


class _PhaseTimer:
    __slots__ = ("profiler", "name", "_started")

    def __init__(self, profiler: "RunProfiler", name: str):
        self.profiler = profiler
        self.name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.profiler._record_phase(
            self.name, time.perf_counter() - self._started
        )


class RunProfiler:
    """Accumulates phase wall-clock times, counters, and free-form values.

    Phases nest and repeat: re-entering a phase name adds to its total
    and bumps its invocation count.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._created = clock()
        self.phases: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.values: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> _PhaseTimer:
        """Time a phase: ``with profiler.phase("measure"): ...``"""
        return _PhaseTimer(self, name)

    def _record_phase(self, name: str, elapsed_s: float) -> None:
        entry = self.phases.setdefault(name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += elapsed_s
        entry["calls"] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def record(self, name: str, value: object) -> None:
        """Attach a free-form value (config knobs, result sizes)."""
        self.values[name] = value

    # -- export ------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Wall-clock lifetime of this profiler so far."""
        return self._clock() - self._created

    def as_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "phases": {
                name: dict(entry) for name, entry in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items(), key=lambda kv: kv[0])),
        }
