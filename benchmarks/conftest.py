"""Shared fixtures for the paper-regenerator benchmarks.

Experiment runs are expensive relative to the analyses, so one
session-scoped cache hands the same :class:`ExperimentResult` to every
benchmark that asks for a given (combination, interval) pair.  All runs
are seeded: the printed tables are reproducible across invocations.

Nothing here times the program: performance is measured by
``benchmarks/suite`` alone (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest

from repro.core.experiment import ExperimentResult, run_combination

#: probes per run — scaled down from the paper's ~9,700 VPs to keep the
#: harness fast; the statistics are stable at this size.
BENCH_PROBES = 300
BENCH_SEED = 20170412  # the DITL capture date


class RunCache:
    """Lazily runs and memoizes testbed experiments."""

    def __init__(self):
        self._runs: dict[tuple[str, float], ExperimentResult] = {}

    def get(self, combo_id: str, interval_s: float = 120.0) -> ExperimentResult:
        key = (combo_id, interval_s)
        if key not in self._runs:
            self._runs[key] = run_combination(
                combo_id,
                num_probes=BENCH_PROBES,
                interval_s=interval_s,
                duration_s=3600.0,
                seed=BENCH_SEED,
            )
        return self._runs[key]


@pytest.fixture(scope="session")
def run_cache():
    return RunCache()
