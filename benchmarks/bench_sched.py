"""The discrete-event kernel: raw drain throughput and the campaign on it.

``sched-drain@…``
    a synthetic heap drain — hundreds of thousands of no-op timer
    events — isolating the kernel's per-event overhead from the DNS
    machinery above it.  Goes into the bench sidecar.
``2C@120s``
    the shared 2C campaign — every tick, delivery, and retry timeout a
    heap event.  Its ``experiment.measure`` phase rides the +15% hard
    gate like every cached run's; this file only reports what one
    kernel event and one query cost inside it.
"""

import time
from types import SimpleNamespace

from repro.netsim.sched import EventKernel

INTERVAL_S = 120.0

DRAIN_EVENTS = 200_000


def test_kernel_drain_throughput(benchmark, run_cache):
    """Per-event cost of the bare kernel, no simulation attached."""

    def drain() -> float:
        kernel = EventKernel()
        sink = [].append
        # A spread of times with heavy ties: the realistic heap shape
        # (many same-tick queries) rather than a pre-sorted ramp.
        for index in range(DRAIN_EVENTS):
            kernel.call_at(float(index % 1024), sink, index)
        start = time.perf_counter()
        kernel.run()
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(drain, rounds=1, iterations=1)
    per_event_us = elapsed / DRAIN_EVENTS * 1e6
    # The sidecar shim: only `.profile` is read when exporting.
    run_cache.put(
        "sched-drain",
        0.0,
        SimpleNamespace(
            profile={
                "phases": {
                    "sched.drain": {"seconds": elapsed, "calls": 1},
                },
                "counters": {
                    "sched.events": float(DRAIN_EVENTS),
                    "sched.us_per_event": per_event_us,
                },
            }
        ),
    )
    print()
    print(
        f"kernel drain: {DRAIN_EVENTS} events in {elapsed:.3f}s "
        f"({per_event_us:.2f} us/event)"
    )
    # Far below a resolution's own cost (tens of us per query): kernel
    # bookkeeping must stay noise next to the DNS work itself.
    assert per_event_us < 50.0


def test_kernel_campaign(benchmark, run_cache):
    """The full 2C campaign: one kernel drain."""
    result = benchmark.pedantic(
        lambda: run_cache.get("2C", INTERVAL_S), rounds=1, iterations=1
    )
    measure_s = result.profile["phases"]["experiment.measure"]["seconds"]
    queries = len(result.observations)
    print()
    print(
        f"experiment.measure: {measure_s:.2f}s over {queries} queries "
        f"({measure_s / queries * 1e6:.1f} us/query)"
    )
    assert queries == result.profile["counters"]["experiment.observations"]
