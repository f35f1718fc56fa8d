"""Why ``AtlasPlatform.measure`` may freeze the heap at each tick.

A frozen object is never cycle-collected until it is unfrozen, so the
freeze is safe only while a campaign makes no cyclic garbage, and only
if every freeze is undone.  What each resolver keeps between ticks (its
record-cache entry) is atoms, which the collector stops tracking.
"""

import gc

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.core.experiment import run_combination
from repro.dns.name import Name
from repro.dns.rdata import TXT, A
from repro.dns.records import ResourceRecord
from repro.dns.types import RRClass, RRType
from repro.netsim.adversary import AttackProfile
from repro.resolvers.resolver import RecursiveResolver
from repro.resolvers.rrcache import RecordCache

CAMPAIGN = dict(num_probes=24, interval_s=120.0, duration_s=1200.0, seed=3)
CAPPED_NXNS = AttackProfile(name="nxns", vector="nxns", max_fetch=3, rrl_qps=2)


@pytest.mark.parametrize(
    "faults",
    [{}, {"scenario": "ns-outage"}, {"attack": CAPPED_NXNS}],
    ids=["plain", "ns-outage", "capped-nxns"],
)
def test_a_campaign_leaves_no_cyclic_garbage(monkeypatch, faults):
    found = []
    measure = AtlasPlatform.measure

    def measure_uncollected(platform, *args, **kwargs):
        gc.collect()
        gc.disable()
        try:
            run = measure(platform, *args, **kwargs)
        finally:
            gc.enable()
        found.append(gc.collect())
        return run

    monkeypatch.setattr(AtlasPlatform, "measure", measure_uncollected)
    result = run_combination("4B", **CAMPAIGN, **faults)
    assert len(result.observations) > 0
    assert found == [0]


def test_measure_undoes_its_freeze_even_when_the_drain_raises(monkeypatch):
    assert gc.get_freeze_count() == 0
    run_combination("4B", **CAMPAIGN)
    assert gc.get_freeze_count() == 0

    resolve_event = RecursiveResolver.resolve_event
    calls = [0]

    def resolve_then_fail(resolver, *args, **kwargs):
        calls[0] += 1
        if calls[0] == 100:  # a later tick: the heap is frozen by now
            assert gc.get_freeze_count() > 0
            raise RuntimeError("drain failed")
        return resolve_event(resolver, *args, **kwargs)

    monkeypatch.setattr(RecursiveResolver, "resolve_event", resolve_then_fail)
    with pytest.raises(RuntimeError, match="drain failed"):
        run_combination("4B", **CAMPAIGN)
    assert gc.get_freeze_count() == 0


def test_a_callers_own_freeze_is_left_as_it_was():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        run_combination("4B", **CAMPAIGN)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_a_record_cache_holds_nothing_the_collector_tracks():
    cache = RecordCache()
    for i in range(3):
        name = Name.from_text(f"m-{i}-0.probe.ourtestdomain.nl.")
        cache.put(name, RRType.TXT, [
            ResourceRecord(name, RRType.TXT, RRClass.IN, 5, TXT.from_value("FRA")),
            ResourceRecord(name, RRType.TXT, RRClass.IN, 9, TXT.from_value("x")),
        ], now=float(i))
        cache.put_negative(name, RRType.A, True, ttl=30, now=float(i))
    cache.put(Name.from_text("ns1.nl."), RRType.A, [
        ResourceRecord(Name.from_text("ns1.nl."), RRType.A, RRClass.IN, 60, A("10.0.0.1"))
    ], now=3.0)
    gc.collect()
    tables = (cache._positive, cache._negative)
    held = [*tables, *cache._expiry]
    for table in tables:
        for key, entry in table.items():
            held += [key, entry]
    assert len(held) == 2 + 7 + 14
    assert [obj for obj in held if gc.is_tracked(obj)] == []
    assert [len(entry.records) for entry in (
        cache.get(Name.from_text("M-2-0.probe.ourtestdomain.nl."), RRType.TXT, 3.0),
        cache.get(Name.from_text("ns1.nl."), RRType.A, 3.0),
    )] == [2, 1]
