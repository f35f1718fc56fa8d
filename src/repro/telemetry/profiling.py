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

import gc
import time


class _PhaseTimer:
    __slots__ = ("profiler", "name", "_started", "_collector")

    def __init__(self, profiler: "RunProfiler", name: str):
        self.profiler = profiler
        self.name = name
        self._started = 0.0
        self._collector: list[dict] = []

    def __enter__(self) -> "_PhaseTimer":
        # Counters read at the edges: a ``gc.callbacks`` hook would
        # allocate inside the phase and move its collections.
        self._collector = gc.get_stats()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._started
        self.profiler._record_phase(
            self.name, elapsed, self._collector, gc.get_stats()
        )


class RunProfiler:
    """Accumulates phase wall-clock times, counters, and free-form values.

    Phases nest and repeat: re-entering a phase name adds to its total
    and bumps its invocation count.  Each phase also carries ``gc``: per
    collector generation, the ``collections`` run and the objects they
    ``collected`` inside it (``gc.get_stats()`` deltas).
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

    def _record_phase(
        self, name: str, elapsed_s: float, gc_before: list, gc_after: list
    ) -> None:
        entry = self.phases.setdefault(name, {
            "seconds": 0.0, "calls": 0,
            "gc": [{"collections": 0, "collected": 0} for _ in gc_after],
        })
        entry["seconds"] += elapsed_s
        entry["calls"] += 1
        for total, before, after in zip(entry["gc"], gc_before, gc_after):
            for key in total:
                total[key] += after[key] - before[key]

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
                name: {**entry, "gc": [dict(gen) for gen in entry["gc"]]}
                for name, entry in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "values": dict(sorted(self.values.items(), key=lambda kv: kv[0])),
        }
