"""Tests for the server-selection algorithms.

Each selector is driven with synthetic RTT feedback (fast vs. slow
server) and we assert the distributional signature the paper and Yu et
al. attribute to that implementation family.
"""

import random
from collections import Counter

import pytest

from repro.resolvers.bind import BindSelector
from repro.resolvers.infracache import InfrastructureCache
from repro.resolvers.naive import RandomSelector, RoundRobinSelector, StickySelector
from repro.resolvers.powerdns import PowerDnsSelector
from repro.resolvers.population import SELECTOR_CLASSES
from repro.resolvers.unbound import UnboundSelector
from repro.resolvers.windows import WindowsSelector

FAST, SLOW = "10.0.0.1", "10.0.0.2"
RTTS = {FAST: 40.0, SLOW: 350.0}


def drive(selector, queries=100, rtts=RTTS, interval_s=120.0, ttl_s=600.0):
    """Run a selection loop with deterministic RTT feedback."""
    cache = InfrastructureCache(ttl_s=ttl_s)
    addresses = list(rtts)
    counts = Counter()
    now = 0.0
    for _ in range(queries):
        choice = selector.select(addresses, cache, now)
        counts[choice] += 1
        selector.on_response(choice, rtts[choice], addresses, cache, now)
        now += interval_s
    return counts


class TestBind:
    def test_prefers_fast_server(self):
        counts = drive(BindSelector(rng=random.Random(1)))
        assert counts[FAST] > counts[SLOW] * 3

    def test_still_probes_slow_server(self):
        # BIND's decay + ADB expiry guarantee the slow server is revisited.
        counts = drive(BindSelector(rng=random.Random(1)))
        assert counts[SLOW] > 0

    def test_roughly_even_when_equal_rtt(self):
        rtts = {FAST: 100.0, SLOW: 100.0}
        totals = Counter()
        for seed in range(20):
            totals += drive(BindSelector(rng=random.Random(seed)), queries=50, rtts=rtts)
        share = totals[FAST] / totals.total()
        assert 0.3 < share < 0.7

    def test_probes_all_servers_quickly(self):
        selector = BindSelector(rng=random.Random(2))
        cache = InfrastructureCache()
        addresses = [f"10.0.1.{i}" for i in range(4)]
        seen = set()
        now = 0.0
        for _ in range(12):
            choice = selector.select(addresses, cache, now)
            seen.add(choice)
            selector.on_response(choice, 50.0, addresses, cache, now)
            now += 1.0
        assert seen == set(addresses)


class TestUnbound:
    def test_uniform_within_band(self):
        # 40 vs 350 ms: both within the 400 ms band → near-uniform split.
        counts = drive(UnboundSelector(rng=random.Random(3)), queries=400)
        share = counts[FAST] / counts.total()
        assert 0.4 < share < 0.6

    def test_avoids_server_outside_band(self):
        rtts = {FAST: 30.0, SLOW: 800.0}
        counts = drive(UnboundSelector(rng=random.Random(3)), queries=200, rtts=rtts,
                       interval_s=10.0, ttl_s=900.0)
        assert counts[FAST] / counts.total() > 0.9

    def test_unknown_servers_get_explored(self):
        counts = drive(UnboundSelector(rng=random.Random(4)), queries=50)
        assert set(counts) == {FAST, SLOW}


class TestPowerDns:
    def test_strong_fast_preference_with_trickle(self):
        counts = drive(PowerDnsSelector(rng=random.Random(5)), queries=400,
                       interval_s=10.0)
        share = counts[FAST] / counts.total()
        assert share > 0.85
        assert counts[SLOW] > 0  # the 1/16 speed-test trickle

    def test_probes_unknown_first(self):
        selector = PowerDnsSelector(rng=random.Random(6))
        cache = InfrastructureCache()
        cache.observe_rtt(FAST, 40.0, now=0.0)
        choice = selector.select([FAST, SLOW], cache, 0.0)
        assert choice == SLOW


class TestWindows:
    def test_locks_onto_fastest(self):
        counts = drive(WindowsSelector(rng=random.Random(7)), queries=100,
                       interval_s=10.0)
        assert counts[FAST] / counts.total() > 0.9

    def test_reprobe_after_interval(self):
        selector = WindowsSelector(rng=random.Random(8))
        counts = drive(selector, queries=200, interval_s=120.0, ttl_s=1e9)
        # Re-probe every 900 s → slow server seen multiple times.
        assert counts[SLOW] >= 3

    def test_failover_on_timeout(self):
        selector = WindowsSelector(rng=random.Random(9))
        cache = InfrastructureCache()
        addresses = [FAST, SLOW]
        for now in (0.0, 1.0):
            choice = selector.select(addresses, cache, now)
            selector.on_response(choice, RTTS[choice], addresses, cache, now)
        favorite = selector.select(addresses, cache, 2.0)
        selector.on_timeout(favorite, addresses, cache, 2.0)
        after = selector.select(addresses, cache, 3.0)
        assert after != favorite

    def test_zero_ms_srtt_is_measured_not_unknown(self):
        # Regression: `srtt or inf` ranked a measured 0.0 ms server as
        # unmeasured, so the 5 ms one (listed first or not) won.
        selector = WindowsSelector(rng=random.Random(10))
        cache = InfrastructureCache()
        addresses = [SLOW, FAST]
        cache.observe_rtt(SLOW, 5.0, now=0.0)
        cache.observe_rtt(FAST, 0.0, now=0.0)
        for _ in addresses:  # the opening probe round visits both
            selector.select(addresses, cache, 1.0)
        assert selector.select(addresses, cache, 1.0) == FAST


class TestNaive:
    def test_random_near_uniform(self):
        counts = drive(RandomSelector(rng=random.Random(10)), queries=1000)
        share = counts[FAST] / counts.total()
        assert 0.45 < share < 0.55

    def test_round_robin_exact_alternation(self):
        selector = RoundRobinSelector(rng=random.Random(11))
        cache = InfrastructureCache()
        picks = [selector.select([FAST, SLOW], cache, float(i)) for i in range(10)]
        assert picks[0::2] == [picks[0]] * 5
        assert picks[1::2] == [picks[1]] * 5
        assert picks[0] != picks[1]

    def test_round_robin_random_start(self):
        starts = {
            RoundRobinSelector(rng=random.Random(seed)).select(
                [FAST, SLOW], InfrastructureCache(), 0.0
            )
            for seed in range(20)
        }
        assert starts == {FAST, SLOW}

    def test_sticky_never_moves_without_timeout(self):
        selector = StickySelector(rng=random.Random(12))
        cache = InfrastructureCache()
        picks = {selector.select([FAST, SLOW], cache, float(i)) for i in range(50)}
        assert len(picks) == 1

    def test_sticky_survives_isolated_timeout(self):
        selector = StickySelector(rng=random.Random(13))
        cache = InfrastructureCache()
        first = selector.select([FAST, SLOW], cache, 0.0)
        selector.on_timeout(first, [FAST, SLOW], cache, 0.0)
        assert selector.select([FAST, SLOW], cache, 1.0) == first

    def test_sticky_moves_after_failure_streak(self):
        selector = StickySelector(rng=random.Random(13))
        cache = InfrastructureCache()
        first = selector.select([FAST, SLOW], cache, 0.0)
        for i in range(selector.failure_streak_to_switch):
            selector.on_timeout(first, [FAST, SLOW], cache, float(i))
        assert selector.select([FAST, SLOW], cache, 10.0) != first

    def test_sticky_success_resets_failure_streak(self):
        selector = StickySelector(rng=random.Random(13))
        cache = InfrastructureCache()
        first = selector.select([FAST, SLOW], cache, 0.0)
        for i in range(10):
            selector.on_timeout(first, [FAST, SLOW], cache, float(i))
            selector.on_response(first, 50.0, [FAST, SLOW], cache, float(i) + 0.5)
        assert selector.select([FAST, SLOW], cache, 20.0) == first


class TestRegistry:
    def test_all_selectors_registered(self):
        assert set(SELECTOR_CLASSES) == {
            "bind", "unbound", "powerdns", "windows",
            "random", "roundrobin", "sticky",
        }

    @pytest.mark.parametrize("name", sorted(SELECTOR_CLASSES))
    def test_selector_contract(self, name):
        selector = SELECTOR_CLASSES[name](rng=random.Random(0))
        cache = InfrastructureCache()
        choice = selector.select([FAST, SLOW], cache, 0.0)
        assert choice in (FAST, SLOW)
        selector.on_response(choice, 50.0, [FAST, SLOW], cache, 0.0)
        selector.on_timeout(choice, [FAST, SLOW], cache, 1.0)
