"""Tests for the record (answer) cache."""

from repro.dns.name import Name
from repro.dns.rdata import TXT, A
from repro.dns.records import ResourceRecord
from repro.dns.types import RRClass, RRType
from repro.resolvers.rrcache import RecordCache

NAME = Name.from_text("probe.ourtestdomain.nl.")


def record(ttl=5, value="x"):
    return ResourceRecord(NAME, RRType.TXT, RRClass.IN, ttl, TXT.from_value(value))


class TestPositive:
    def test_put_get(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [record()], now=0.0)
        entry = cache.get(NAME, RRType.TXT, now=1.0)
        assert entry is not None
        assert entry.records[0].rdata.value == "x"

    def test_expires_at_min_ttl(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [record(ttl=5), record(ttl=300, value="y")], now=0.0)
        assert cache.get(NAME, RRType.TXT, now=4.9) is not None
        assert cache.get(NAME, RRType.TXT, now=5.0) is None

    def test_miss_counts(self):
        cache = RecordCache()
        cache.get(NAME, RRType.TXT, now=0.0)
        cache.put(NAME, RRType.TXT, [record()], now=0.0)
        cache.get(NAME, RRType.TXT, now=0.1)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_type_isolation(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [record()], now=0.0)
        assert cache.get(NAME, RRType.A, now=0.0) is None

    def test_empty_put_ignored(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [], now=0.0)
        assert len(cache) == 0


class TestNegative:
    def test_negative_roundtrip(self):
        cache = RecordCache()
        cache.put_negative(NAME, RRType.TXT, nxdomain=True, ttl=30, now=0.0)
        entry = cache.get_negative(NAME, RRType.TXT, now=29.0)
        assert entry is not None and entry.nxdomain

    def test_negative_expiry(self):
        cache = RecordCache()
        cache.put_negative(NAME, RRType.TXT, nxdomain=False, ttl=30, now=0.0)
        assert cache.get_negative(NAME, RRType.TXT, now=30.0) is None

    def test_positive_overwrites_negative(self):
        cache = RecordCache()
        cache.put_negative(NAME, RRType.TXT, nxdomain=True, ttl=300, now=0.0)
        cache.put(NAME, RRType.TXT, [record()], now=1.0)
        assert cache.get_negative(NAME, RRType.TXT, now=2.0) is None
        assert cache.get(NAME, RRType.TXT, now=2.0) is not None


class TestEviction:
    def test_capacity_bounded(self):
        cache = RecordCache(max_entries=10)
        for i in range(25):
            name = Name.from_text(f"q{i}.ourtestdomain.nl.")
            cache.put(name, RRType.TXT, [
                ResourceRecord(name, RRType.TXT, RRClass.IN, 300, TXT.from_value("v"))
            ], now=float(i))
        assert len(cache) <= 10

    def test_expired_evicted_first(self):
        cache = RecordCache(max_entries=2)
        short = Name.from_text("short.nl.")
        cache.put(short, RRType.TXT, [
            ResourceRecord(short, RRType.TXT, RRClass.IN, 1, TXT.from_value("s"))
        ], now=0.0)
        longer = Name.from_text("long.nl.")
        cache.put(longer, RRType.TXT, [
            ResourceRecord(longer, RRType.TXT, RRClass.IN, 300, TXT.from_value("l"))
        ], now=0.0)
        third = Name.from_text("third.nl.")
        cache.put(third, RRType.TXT, [
            ResourceRecord(third, RRType.TXT, RRClass.IN, 300, TXT.from_value("t"))
        ], now=10.0)
        assert cache.get(longer, RRType.TXT, now=10.0) is not None
        assert cache.get(third, RRType.TXT, now=10.0) is not None

    def test_expired_entries_swept_on_put(self):
        cache = RecordCache()
        for tick in range(30):
            name = Name.from_text(f"t{tick}.ourtestdomain.nl.")
            cache.put(name, RRType.TXT, [
                ResourceRecord(name, RRType.TXT, RRClass.IN, 5, TXT.from_value("v"))
            ], now=tick * 120.0)
        assert len(cache) == 1  # not one per tick ever asked

    def test_cap_covers_negative_entries(self):
        cache = RecordCache(max_entries=4)
        for i in range(10):
            cache.put_negative(
                Name.from_text(f"n{i}.nl."), RRType.A, True, ttl=300, now=float(i)
            )
        assert len(cache) == 4
        cache.put(NAME, RRType.TXT, [record(ttl=300)], now=10.0)
        assert len(cache) == 4
        assert cache.get(NAME, RRType.TXT, 10.0) is not None
        # The earliest-expiring went each time: n0..n6 are gone, n7..n9 stay.
        assert cache.get_negative(Name.from_text("n6.nl."), RRType.A, 10.0) is None
        assert cache.get_negative(Name.from_text("n7.nl."), RRType.A, 10.0) is not None

    def test_full_cache_evicts_earliest_expiring_not_oldest(self):
        cache = RecordCache(max_entries=3)
        names = [Name.from_text(f"{label}.nl.") for label in "abcd"]
        for name, ttl in zip(names, (300, 20, 100)):
            cache.put(name, RRType.TXT, [
                ResourceRecord(name, RRType.TXT, RRClass.IN, ttl, TXT.from_value("v"))
            ], now=0.0)
        cache.put(names[3], RRType.TXT, [
            ResourceRecord(names[3], RRType.TXT, RRClass.IN, 50, TXT.from_value("v"))
        ], now=1.0)
        alive = [cache.get(name, RRType.TXT, now=1.0) is not None for name in names]
        assert alive == [True, False, True, True]

    def test_reput_with_longer_ttl_outlives_the_first_expiry(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [record(ttl=5)], now=0.0)
        cache.put(NAME, RRType.TXT, [record(ttl=300)], now=1.0)
        cache.put_negative(NAME, RRType.A, True, ttl=1, now=6.0)  # sweeps at 6
        assert cache.get(NAME, RRType.TXT, now=6.0) is not None
        # ... and a re-put at a full cache displaces nobody.
        full = RecordCache(max_entries=1)
        full.put(NAME, RRType.TXT, [record(ttl=5)], now=0.0)
        full.put(NAME, RRType.TXT, [record(ttl=9)], now=1.0)
        assert full.get(NAME, RRType.TXT, now=8.0) is not None

    def test_expiry_heap_stays_proportional_to_live_entries(self):
        cache = RecordCache()
        for i in range(10_000):
            cache.put(NAME, RRType.TXT, [record(ttl=86_400)], now=float(i % 7))
        assert len(cache) == 1
        assert len(cache._expiry) <= 2 * len(cache) + 65
        assert cache.get(NAME, RRType.TXT, now=7.0) is not None

    def test_flush(self):
        cache = RecordCache()
        cache.put(NAME, RRType.TXT, [record()], now=0.0)
        cache.put_negative(NAME, RRType.A, True, 30, now=0.0)
        cache.flush()
        assert len(cache) == 0
        assert cache.get_negative(NAME, RRType.A, now=0.0) is None
