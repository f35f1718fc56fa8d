"""Per-observation memory floors of a cache-busting campaign.

The paper's campaign asks a unique name per VP per tick with a 5 s TTL
every 120 s, so nothing a resolver caches is alive at the next tick and
nothing the simulator keeps per query may cost more than a few columns.
These bounds are what ``peak_rss_mib`` on the suite's ``campaign_cold``
rests on; they are enforced here so they hold wherever tier-1 runs.
"""

import sys

from repro.atlas.platform import AtlasPlatform
from repro.core.experiment import run_combination

PROBES, TICKS = 60, 30


def test_campaign_state_does_not_grow_per_observation(monkeypatch):
    platforms = []
    measure = AtlasPlatform.measure

    def measure_and_keep(platform, *args, **kwargs):
        platforms.append(platform)
        return measure(platform, *args, **kwargs)

    monkeypatch.setattr(AtlasPlatform, "measure", measure_and_keep)
    result = run_combination(
        "4B", num_probes=PROBES, interval_s=120.0, duration_s=TICKS * 120.0, seed=3
    )
    (platform,) = platforms
    assert len(result.observations) >= PROBES * TICKS

    # Record caches: only the last tick's answer is left (was one per tick).
    caches = {
        id(vp.resolver.record_cache): vp.resolver.record_cache
        for vp in platform.vantage_points
    }
    assert max(len(cache) for cache in caches.values()) <= 1

    # Query logs: columns, not a dataclass and a Name per query (~570 B).
    logs = [
        engine.query_log
        for deployed in result.deployment.deployed
        for engine in deployed.engines.values()
    ]
    entries = sum(len(log) for log in logs)
    assert entries >= len(result.observations)
    column_bytes = sum(
        sys.getsizeof(getattr(chunk, column))
        for log in logs
        for chunk in log._chunks
        for column in chunk.__slots__
    )
    assert column_bytes / entries <= 100

    # Observation store: a few array columns per row (the suite's
    # `core.store.bytes_per_row`, same expression; ~69 at 300 probes).
    store = result.run.store
    store_bytes = sum(sys.getsizeof(value) for value in store.__getstate__().values())
    assert store_bytes / len(store) <= 100

    # Decode memo: one per network, a handful of template shapes in all.
    assert len(platform.network.response_memo._entries) <= 32
