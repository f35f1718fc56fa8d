"""Per-observation memory floors of a cache-busting campaign.

The paper's campaign asks a unique name per VP per tick with a 5 s TTL
every 120 s, so nothing a resolver caches is alive at the next tick and
nothing the simulator keeps per query may cost more than a few columns.
These bounds are what ``peak_rss_mib`` on the suite's ``campaign_cold``
rests on; they are enforced here so they hold wherever tier-1 runs.
"""

import gc
import random
import sys
import tracemalloc

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.core.experiment import run_combination
from repro.resolvers.resolver import RecursiveResolver
from repro.seeding import CounterStream

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

    # Observation store: a few array columns per row, each sized to its
    # values (the suite's `core.store.bytes_per_row`, same expression).
    # Pinned at this tree's reading plus 10 % (57.4 B; 67.6 with 8-byte
    # vp ids and label offsets and 4-byte attempt counts).
    store = result.run.store
    store_bytes = sum(sys.getsizeof(value) for value in store.__getstate__().values())
    assert store_bytes / len(store) <= 63

    # Decode memo: one per network, a handful of template shapes in all.
    assert len(platform.network.response_memo._entries) <= 32


def heap_growth_across_measure(monkeypatch, files, **campaign) -> list[int]:
    """What ``files`` (under ``repro/``) still hold after ``measure`` that
    they did not hold before it, for a 60-probe 4B campaign at 10 and at
    30 ticks."""
    growth = []
    measure = AtlasPlatform.measure
    filters = [tracemalloc.Filter(True, f"*/repro/{name}") for name in files]

    def snapshot():
        gc.collect()  # what is still referenced, not cyclic garbage
        return tracemalloc.take_snapshot().filter_traces(filters)

    def measure_and_trace(platform, *args, **kwargs):
        tracemalloc.start()
        try:
            before = snapshot()
            run = measure(platform, *args, **kwargs)
            after = snapshot()
        finally:
            tracemalloc.stop()
        growth.append(
            sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        )
        return run

    monkeypatch.setattr(AtlasPlatform, "measure", measure_and_trace)
    for ticks in (10, TICKS):
        run_combination(
            "4B", num_probes=PROBES, interval_s=120.0,
            duration_s=ticks * 120.0, seed=3, **campaign,
        )
    return growth


def test_an_engine_keeps_no_per_query_state(monkeypatch):
    """What the authoritative engines allocate over a campaign does not
    grow with its length: three times the ticks, three times the
    queries, the same few KiB (templates, aliases, counters).  Anything
    kept per query shows: 60 B a query is ≈ 50 KiB at 10 ticks and
    ≈ 110 KiB at 30."""
    growth = heap_growth_across_measure(monkeypatch, ["dns/server.py"])
    short, long = growth
    assert abs(long - short) <= 4 * 1024, growth
    assert max(short, long) < 16 * 1024, growth


def test_an_attacked_engines_limiter_keeps_no_per_query_state(monkeypatch):
    """Under an NXNS bomb with RRL on, no limiter bucket outlives four
    windows, so what the engines and their limiters hold at the end does
    not grow with the campaign.  Buckets kept to the end of the campaign
    read ≈ 180 KiB at 10 ticks and ≈ 520 KiB at 30."""
    from repro.netsim.adversary import AttackProfile

    growth = heap_growth_across_measure(
        monkeypatch, ["dns/rrl.py", "dns/server.py"], scenario="ns-flap",
        attack=AttackProfile(name="nxns-rrl", vector="nxns", rrl_qps=9),
    )
    short, long = growth
    assert abs(long - short) <= 8 * 1024, growth
    assert max(short, long) < 64 * 1024, growth


def test_an_in_flight_query_holds_few_tracked_objects(monkeypatch):
    """A tick issues every VP's query before any answer arrives, so what
    one in-flight query keeps alive is multiplied by the VP count, and
    every garbage collection until the answers land walks all of it."""
    vps, calls, tracked = [], [0], []
    measure = AtlasPlatform.measure
    resolve_event = RecursiveResolver.resolve_event

    def live() -> int:
        gc.collect()
        return len(gc.get_objects())

    def measure_and_count(platform, *args, **kwargs):
        vps.append(len(platform.vantage_points))
        return measure(platform, *args, **kwargs)

    def resolve_and_count(resolver, *args, **kwargs):
        if calls[0] == 0:
            tracked.append(live())
        resolve_event(resolver, *args, **kwargs)
        calls[0] += 1
        if calls[0] == vps[0]:  # tick 0 has sent every VP's query
            tracked.append(live())

    monkeypatch.setattr(AtlasPlatform, "measure", measure_and_count)
    monkeypatch.setattr(RecursiveResolver, "resolve_event", resolve_and_count)
    run_combination("4B", num_probes=PROBES, interval_s=120.0, duration_s=240.0, seed=3)
    before, after = tracked
    assert (after - before) / vps[0] <= 12


def live_mersenne_streams() -> int:
    gc.collect()
    return sum(type(obj) is random.Random for obj in gc.get_objects())


def test_no_mersenne_state_per_pair_resolver_or_selector(monkeypatch):
    """What a campaign keeps per entity for randomness is one integer.

    A ``random.Random`` is 2.5 KiB; one per (client, destination) pair,
    resolver and selector was 21 % of ``campaign_cold``'s peak RSS.
    """
    seen = []
    measure = AtlasPlatform.measure

    def measure_and_count(platform, *args, **kwargs):
        run = measure(platform, *args, **kwargs)
        seen[:] = [platform]  # the previous run's platform may go
        live.append(live_mersenne_streams())
        return run

    monkeypatch.setattr(AtlasPlatform, "measure", measure_and_count)
    live = [live_mersenne_streams()]
    vps = []
    for probes in (20, PROBES):
        run_combination(
            "4B", num_probes=probes, interval_s=120.0,
            duration_s=TICKS * 120.0, seed=3, scenario="brownout",
        )
        vps.append(len(seen[0].vantage_points))
    assert vps[1] > 2 * vps[0]
    # Shared streams only (platform, latency, population, ...): the
    # count does not know how many VPs there are.
    before, after_small, after_large = live
    assert after_large == after_small
    assert after_large - before < 20

    (platform,) = seen
    network = platform.network
    # One entry per pair that talked: a machine word in the network's
    # state column, a bare int in the fault plan's table.
    assert network._states.typecode == "Q"
    assert len(network._states) > PROBES // 2
    fault_states = list(network.faults._pair_streams.values())
    assert len(fault_states) > PROBES // 2
    assert all(type(state) is int for state in fault_states)
    for vp in platform.vantage_points:
        for stream in (vp.resolver.rng, vp.resolver.selector.rng):
            assert type(stream) is CounterStream
            assert sys.getsizeof(stream) <= 64


def built_platform(monkeypatch, probes: int) -> AtlasPlatform:
    """The platform of a one-tick 4B campaign, kept past its run."""
    platforms = []
    measure = AtlasPlatform.measure

    def measure_and_keep(platform, *args, **kwargs):
        platforms.append(platform)
        return measure(platform, *args, **kwargs)

    monkeypatch.setattr(AtlasPlatform, "measure", measure_and_keep)
    run_combination(
        "4B", num_probes=probes, interval_s=120.0, duration_s=120.0, seed=3
    )
    (platform,) = platforms
    return platform


def test_per_vp_objects_keep_no_instance_dict(monkeypatch):
    platform = built_platform(monkeypatch, PROBES)
    objects = []
    for vp in platform.vantage_points:
        resolver = vp.resolver
        objects += [vp, vp.probe, resolver, resolver.selector,
                    resolver.record_cache, resolver.infra_cache]
    kinds = {type(obj).__name__ for obj in objects}
    assert {"VantagePoint", "Probe", "RecursiveResolver", "RecordCache",
            "InfrastructureCache"} <= kinds
    assert len(kinds) >= 7  # several selector families
    assert [type(obj) for obj in objects if hasattr(obj, "__dict__")] == []

    class Instrumented(type(platform.vantage_points[0].resolver.selector)):
        pass

    assert hasattr(Instrumented(), "__dict__")  # a subclass still may


def per_vp_heap(probes: int) -> tuple[int, int, int]:
    """VPs, and the heap a 4B campaign holds after building its VPs and
    teaching them the zone, then after one tick, both against the heap
    before ``build_vantage_points``."""
    held = []
    build = AtlasPlatform.build_vantage_points
    measure = AtlasPlatform.measure
    skip = [tracemalloc.Filter(False, tracemalloc.__file__)]

    def snapshot():
        gc.collect()
        return tracemalloc.take_snapshot().filter_traces(skip)

    def grown(before, after) -> int:
        return sum(stat.size_diff for stat in after.compare_to(before, "filename"))

    def build_traced(platform):
        tracemalloc.start()
        held.append(snapshot())
        return build(platform)

    def measure_traced(platform, *args, **kwargs):
        try:
            built = snapshot()
            run = measure(platform, *args, **kwargs)
            ticked = snapshot()
        finally:
            tracemalloc.stop()
        held[:] = [
            len(platform.vantage_points),
            grown(held[0], built),
            grown(held[0], ticked),
        ]
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AtlasPlatform, "build_vantage_points", build_traced)
        patch.setattr(AtlasPlatform, "measure", measure_traced)
        run_combination(
            "4B", num_probes=probes, interval_s=120.0, duration_s=120.0, seed=3
        )
    return tuple(held)


def test_a_vantage_point_has_a_heap_floor():
    """Bytes per VP, as the slope from 60 to 180 probes (fixed costs
    cancel): what a built VP holds (its resolver, selector, caches and
    stub zones) and that plus one tick's query state.

    Pinned at this tree's reading plus 10 % (951 and 2 083 B on
    CPython 3.11).  With one path-slot object per (client, destination)
    pair, in a dict keyed by an address-string pair, the second read
    2 385 B; with the record cache's entry kept as a name, a record, a
    list and an entry object as well, 2 713 B; with a stub-zone table
    per resolver and five fields per infrastructure-cache entry as well,
    1 173 and 3 015 B; with an instance dict per resolver, selector,
    cache and VP as well, and a list of NS addresses per resolver, 1 382
    and 3 223 B.  One tick's query state (cache entry, path row, row) is
    most of the second."""
    small, large = per_vp_heap(PROBES), per_vp_heap(3 * PROBES)
    vps = large[0] - small[0]
    built = (large[1] - small[1]) / vps
    ticked = (large[2] - small[2]) / vps
    assert built < 1046, built
    assert ticked < 2291, ticked


def in_measure_peak(probes: int, ticks: int) -> tuple[int, int]:
    """VPs, and the heap's peak inside ``measure`` of a 4B campaign
    above what it held at entry."""
    held = []
    measure = AtlasPlatform.measure

    def measure_traced(platform, *args, **kwargs):
        gc.collect()
        tracemalloc.start()
        try:
            run = measure(platform, *args, **kwargs)
            held[:] = [len(platform.vantage_points), tracemalloc.get_traced_memory()[1]]
        finally:
            tracemalloc.stop()
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AtlasPlatform, "measure", measure_traced)
        run_combination(
            "4B", num_probes=probes, interval_s=120.0,
            duration_s=ticks * 120.0, seed=3,
        )
    return tuple(held)


def test_a_vantage_point_has_an_in_measure_peak_floor():
    """Bytes per VP at the heap's peak inside ``measure``, as the slope
    from 60 to 180 probes over three ticks.  The peak falls mid-tick,
    with every VP's query in flight, so whatever a VP keeps between
    exchanges adds to it.

    Pinned at this tree's reading plus 10 % (2 397 B on CPython 3.11).
    With last tick's record-cache entry swept only at the next put
    (after the tick's in-flight state was allocated) and one path-slot
    object per pair, it read 3 261 B."""
    small, large = in_measure_peak(PROBES, 3), in_measure_peak(3 * PROBES, 3)
    per_vp = (large[1] - small[1]) / (large[0] - small[0])
    assert per_vp < 2637, per_vp


def test_resolvers_that_know_the_same_zones_share_one_table(monkeypatch):
    platform = built_platform(monkeypatch, PROBES)
    resolvers = {id(vp.resolver): vp.resolver for vp in platform.vantage_points}
    assert len(resolvers) > PROBES // 2
    tables = {id(resolver.stub_zones): resolver.stub_zones for resolver in resolvers.values()}
    assert len(tables) == 1
    (table,) = tables.values()
    assert [str(origin) for origin in table] == ["ourtestdomain.nl."]


def test_teaching_one_resolver_a_zone_leaves_the_others_tables(monkeypatch):
    platform = built_platform(monkeypatch, PROBES)
    first, *others = {id(vp.resolver): vp.resolver for vp in platform.vantage_points}.values()
    shared = first.stub_zones
    before = dict(shared)
    first.add_stub_zone("example.test.", ["192.0.2.53"])
    assert first.stub_zones is not shared
    assert len(first.stub_zones) == len(before) + 1
    assert shared == before
    assert all(other.stub_zones is shared for other in others)
