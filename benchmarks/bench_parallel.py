"""Sharded engine: serial-equivalence and parallel speedup.

Runs the 2C campaign once serially and once through the sharded engine
(:func:`repro.core.run_campaign`, ``workers=4``: spawn workers), checks
the merged output is *identical* (the engine's load-bearing invariant),
and records the speedup in the bench sidecar.

Two speedup figures are reported:

``parallel.speedup_x``
    critical-path speedup — serial wall time over the slowest shard's
    wall time, with the shards timed *uncontended* (run inline, one
    after the other, over the same 4-way partition).  This is what the
    sharding buys: the wall-clock speedup converges to it when every
    worker gets its own core, and unlike raw wall clock it is
    meaningful on the shared/1-core CI runners this suite also runs on.
``parallel.wall_speedup_x``
    measured wall-clock speedup of the real 4-process run on this
    machine — recorded for the record, never gated (on a 1-core box the
    pool is pure overhead and this sits below 1).
"""

import gc
import os

from repro.core.experiment import ExperimentConfig, run_campaign, run_combination

from .conftest import BENCH_PROBES, BENCH_SEED

PARALLEL_WORKERS = 4
INTERVAL_S = 120.0


def run_parallel_campaign():
    return run_combination(
        "2C",
        workers=PARALLEL_WORKERS,
        num_probes=BENCH_PROBES,
        interval_s=INTERVAL_S,
        duration_s=3600.0,
        seed=BENCH_SEED,
    )


def test_parallel_speedup(benchmark, run_cache):
    serial = run_cache.get("2C", INTERVAL_S)
    parallel = benchmark.pedantic(
        run_parallel_campaign, rounds=1, iterations=1
    )

    # The invariant first: 4 spawn workers, identical merged output.
    assert parallel.workers == PARALLEL_WORKERS
    assert parallel.run.observations == serial.run.observations
    assert parallel.server_query_counts == dict(
        sorted(serial.server_query_counts.items())
    )

    # Critical path from an inline run over the same partition: the
    # pooled run above times its shards under whatever core contention
    # this machine has, so it can't provide a stable figure.  The
    # earlier benchmarks in this process leave enough live heap that a
    # generational collection landing inside one shard's window skews
    # the max(); keep the collector out of the timed shards.
    gc.collect()
    gc.disable()
    try:
        inline = run_campaign(
            ExperimentConfig.for_combination(
                "2C",
                num_probes=BENCH_PROBES,
                interval_s=INTERVAL_S,
                duration_s=3600.0,
                seed=BENCH_SEED,
            ),
            shards=PARALLEL_WORKERS,
        )
    finally:
        gc.enable()
    assert inline.run.observations == serial.run.observations

    serial_s = serial.profile["total_seconds"]
    critical_path_s = max(
        profile["total_seconds"] for profile in inline.shard_profiles
    )
    parallel_s = parallel.profile["total_seconds"]
    speedup = serial_s / critical_path_s
    wall_speedup = serial_s / parallel_s

    values = parallel.profile.setdefault("values", {})
    values["parallel.speedup_x"] = round(speedup, 3)
    values["parallel.wall_speedup_x"] = round(wall_speedup, 3)
    run_cache.put(f"parallel-{PARALLEL_WORKERS}w", INTERVAL_S, parallel)

    print()
    print(
        f"serial {serial_s:.2f}s | slowest of {parallel.shards} shards "
        f"{critical_path_s:.2f}s | {PARALLEL_WORKERS}-worker wall "
        f"{parallel_s:.2f}s ({os.cpu_count()} cpus)"
    )
    print(
        f"critical-path speedup {speedup:.2f}x, "
        f"wall-clock speedup {wall_speedup:.2f}x"
    )

    # 4 balanced shards must shorten the critical path by at least 2x;
    # anything less means the partition is lopsided or per-shard fixed
    # costs have grown to dominate the campaign.
    assert speedup >= 2.0
