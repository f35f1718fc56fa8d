"""The full paper-vs-measured scorecard, in one run.

Collects every quantitative claim tracked in
:mod:`repro.analysis.paper` from the shared experiment cache plus the
passive traces, and prints a single verdict table — the one-look answer
to "does the reproduction hold?".
"""

import re
from pathlib import Path

from repro.analysis.paper import build_scorecard
from repro.core.combinations import COMBINATIONS

from .conftest import BENCH_PROBES, BENCH_SEED


def test_scorecard(benchmark, run_cache):
    for combo_id in COMBINATIONS:
        run_cache.get(combo_id)
    card = benchmark.pedantic(
        build_scorecard,
        args=(run_cache.get, BENCH_PROBES // 2, 250, BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    print()
    print(card.render())
    misses = card.misses()
    if misses:
        print(f"claims outside tolerance: {misses}")
    # The reproduction contract: at most two claims drift out of band.
    assert len(misses) <= 2, misses
    # ...and the prose states the verdict printed above, not a remembered one.
    root = Path(__file__).resolve().parents[1]
    for name in ("EXPERIMENTS.md", "README.md"):
        (stated,) = re.findall(r"\*\*(\d+) / 18\b", (root / name).read_text())
        assert int(stated) == 18 - len(misses), (name, stated, misses)
