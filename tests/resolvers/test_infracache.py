"""Tests for the infrastructure (SRTT) cache."""

import pytest

from repro.resolvers.infracache import InfrastructureCache


class TestObserveRtt:
    def test_first_sample_sets_srtt(self):
        cache = InfrastructureCache()
        entry = cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        assert entry.srtt_ms == 50.0
        assert entry.expires_at == 600.0

    def test_ewma_smoothing(self):
        cache = InfrastructureCache()
        cache.observe_rtt("10.0.0.1", 100.0, now=0.0)
        entry = cache.observe_rtt("10.0.0.1", 200.0, now=1.0, alpha=0.3)
        assert entry.srtt_ms == pytest.approx(0.3 * 200 + 0.7 * 100)

    def test_alpha_one_replaces(self):
        cache = InfrastructureCache()
        cache.observe_rtt("10.0.0.1", 100.0, now=0.0)
        entry = cache.observe_rtt("10.0.0.1", 40.0, now=1.0, alpha=1.0)
        assert entry.srtt_ms == 40.0


class TestExpiry:
    def test_entry_expires_after_ttl(self):
        cache = InfrastructureCache(ttl_s=600.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        assert cache.get("10.0.0.1", 599.9) is not None
        assert cache.get("10.0.0.1", 600.0) is None

    def test_update_refreshes_expiry(self):
        cache = InfrastructureCache(ttl_s=600.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=500.0)
        assert cache.get("10.0.0.1", 900.0) is not None

    def test_srtt_none_when_expired(self):
        cache = InfrastructureCache(ttl_s=10.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        assert cache.srtt("10.0.0.1", 20.0) is None


class TestTimeouts:
    def test_timeout_doubles_srtt(self):
        cache = InfrastructureCache()
        cache.observe_rtt("10.0.0.1", 500.0, now=0.0)
        entry = cache.observe_timeout("10.0.0.1", now=1.0)
        assert entry.srtt_ms == 1000.0
        assert entry.expires_at == 601.0

    def test_timeout_floor(self):
        cache = InfrastructureCache()
        cache.observe_rtt("10.0.0.1", 10.0, now=0.0)
        entry = cache.observe_timeout("10.0.0.1", now=1.0, floor_ms=400.0)
        assert entry.srtt_ms == 400.0

    def test_timeout_on_unknown_creates_entry(self):
        cache = InfrastructureCache()
        entry = cache.observe_timeout("10.0.0.1", now=0.0, floor_ms=400.0)
        assert entry.srtt_ms == 400.0


class TestDecay:
    def test_decay_reduces_srtt(self):
        cache = InfrastructureCache()
        cache.observe_rtt("10.0.0.1", 100.0, now=0.0)
        cache.decay("10.0.0.1", now=1.0, factor=0.98)
        assert cache.srtt("10.0.0.1", 1.0) == pytest.approx(98.0)

    def test_decay_does_not_refresh_expiry(self):
        cache = InfrastructureCache(ttl_s=100.0)
        cache.observe_rtt("10.0.0.1", 100.0, now=0.0)
        cache.decay("10.0.0.1", now=99.0)
        assert cache.get("10.0.0.1", 101.0) is None

    def test_decay_on_missing_is_noop(self):
        cache = InfrastructureCache()
        cache.decay("10.0.0.1", now=0.0)  # no exception
        assert len(cache) == 0


class TestHousekeeping:

    def test_clear(self):
        cache = InfrastructureCache()
        cache.observe_rtt("a", 1.0, now=0.0)
        cache.observe_rtt("b", 1.0, now=0.0)
        cache.clear()
        assert len(cache) == 0


class TestAccessorConsistency:
    """`srtt()` must agree with `entry()` on expiry, boundary included."""

    def test_entry_is_get(self):
        cache = InfrastructureCache(ttl_s=600.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        assert cache.entry("10.0.0.1", 10.0) is cache.get("10.0.0.1", 10.0)

    def test_srtt_matches_entry_when_live(self):
        cache = InfrastructureCache(ttl_s=600.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        entry = cache.entry("10.0.0.1", 599.999)
        assert entry is not None
        assert cache.srtt("10.0.0.1", 599.999) == entry.srtt_ms

    def test_srtt_none_exactly_at_expiry_boundary(self):
        # Regression: at now == expires_at the entry is expired for
        # entry(); srtt() must not serve a value entry() would reject.
        cache = InfrastructureCache(ttl_s=600.0)
        cache.observe_rtt("10.0.0.1", 50.0, now=0.0)
        assert cache.entry("10.0.0.1", 600.0) is None
        assert cache.srtt("10.0.0.1", 600.0) is None

    def test_accessors_agree_across_the_boundary(self):
        cache = InfrastructureCache(ttl_s=10.0)
        cache.observe_rtt("10.0.0.1", 25.0, now=0.0)
        for now in (0.0, 5.0, 9.999, 10.0, 10.001, 60.0):
            entry = cache.entry("10.0.0.1", now)
            srtt = cache.srtt("10.0.0.1", now)
            assert (entry is None) == (srtt is None)
            if entry is not None:
                assert srtt == entry.srtt_ms

    def test_expired_helper_matches_accessors(self):
        cache = InfrastructureCache(ttl_s=10.0)
        entry = cache.observe_rtt("10.0.0.1", 25.0, now=0.0)
        assert not entry.expired(9.999)
        assert entry.expired(10.0)

    def test_stale_entry_still_served_after_expiry(self):
        cache = InfrastructureCache(ttl_s=10.0)
        cache.observe_rtt("10.0.0.1", 25.0, now=0.0)
        assert cache.entry("10.0.0.1", 20.0) is None
        stale = cache.stale_entry("10.0.0.1", 20.0)
        assert stale is not None and stale.srtt_ms == 25.0
