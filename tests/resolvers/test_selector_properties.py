"""Property-based tests: invariants every selector must uphold."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.types import Rcode, RRType
from repro.netsim.faults import FaultPlan, NsOutage, Scenario
from repro.netsim.geo import PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.infracache import InfrastructureCache
from repro.resolvers.population import SELECTOR_CLASSES
from repro.resolvers.resolver import RecursiveResolver

addresses_strategy = st.lists(
    st.from_regex(r"10\.\d{1,2}\.\d{1,2}\.\d{1,2}", fullmatch=True),
    min_size=1,
    max_size=6,
    unique=True,
)
selector_name = st.sampled_from(sorted(SELECTOR_CLASSES))


def make_selector(name, seed):
    return SELECTOR_CLASSES[name](rng=random.Random(seed))


class TestSelectorInvariants:
    @settings(max_examples=100, deadline=None)
    @given(selector_name, addresses_strategy, st.integers(0, 2**31))
    def test_select_returns_member(self, name, addresses, seed):
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        for tick in range(10):
            choice = selector.select(addresses, cache, float(tick))
            assert choice in addresses
            selector.on_response(choice, 50.0, addresses, cache, float(tick))

    @settings(max_examples=60, deadline=None)
    @given(selector_name, addresses_strategy, st.integers(0, 2**31))
    def test_survives_interleaved_timeouts(self, name, addresses, seed):
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        rng = random.Random(seed ^ 0xBEEF)
        for tick in range(20):
            choice = selector.select(addresses, cache, float(tick))
            assert choice in addresses
            if rng.random() < 0.5:
                selector.on_timeout(choice, addresses, cache, float(tick))
            else:
                selector.on_response(
                    choice, rng.uniform(5.0, 400.0), addresses, cache, float(tick)
                )

    @settings(max_examples=60, deadline=None)
    @given(selector_name, st.integers(0, 2**31))
    def test_single_server_always_chosen(self, name, seed):
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        for tick in range(5):
            assert selector.select(["10.0.0.1"], cache, float(tick)) == "10.0.0.1"
            selector.on_timeout("10.0.0.1", ["10.0.0.1"], cache, float(tick))

    @settings(max_examples=40, deadline=None)
    @given(selector_name, addresses_strategy, st.integers(0, 2**31))
    def test_deterministic_given_seed(self, name, addresses, seed):
        def run():
            selector = make_selector(name, seed)
            cache = InfrastructureCache()
            choices = []
            for tick in range(15):
                choice = selector.select(addresses, cache, float(tick))
                choices.append(choice)
                selector.on_response(choice, 80.0, addresses, cache, float(tick))
            return choices

        assert run() == run()


class TestFailureInvariants:
    """Selector behaviour under scripted outages (the §6 failure modes).

    The outage script drives selectors directly: a "dead" server times
    out whenever selected, a healthy one answers.  Tick spacing is 60
    virtual seconds so cache TTLs (600 s) and re-probe timers (900 s)
    actually elapse within a scripted phase.
    """

    DT = 60.0

    @settings(max_examples=60, deadline=None)
    @given(selector_name, st.integers(0, 2**31), st.floats(5.0, 390.0))
    def test_outage_never_starves_healthy_ns(self, name, seed, healthy_rtt):
        dead, healthy = "10.0.0.1", "10.0.0.2"
        addresses = [dead, healthy]
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        healthy_picks = 0
        for tick in range(40):
            now = tick * self.DT
            choice = selector.select(addresses, cache, now)
            if choice == dead:
                selector.on_timeout(dead, addresses, cache, now)
            else:
                healthy_picks += 1
                selector.on_response(
                    healthy, healthy_rtt, addresses, cache, now
                )
        # No implementation may starve the only healthy NS: even pure
        # exploration finds it, and SRTT-driven ones should live on it.
        assert healthy_picks >= 5

    @settings(max_examples=60, deadline=None)
    @given(selector_name, addresses_strategy, st.integers(0, 2**31))
    def test_all_down_select_never_hangs(self, name, addresses, seed):
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        for tick in range(30):
            now = tick * self.DT
            choice = selector.select(addresses, cache, now)
            assert choice in addresses
            selector.on_timeout(choice, addresses, cache, now)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(set(SELECTOR_CLASSES) - {"sticky"})),
        st.integers(0, 2**31),
        st.floats(5.0, 390.0),
    )
    def test_recovery_reearns_query_share(self, name, seed, healthy_rtt):
        # Sticky (dnsmasq-style) is excluded by design: once it has
        # switched away it never returns — the paper's Figure 4 pinned
        # population.  Every other selector must eventually re-probe a
        # recovered server: SRTT decay (BIND), infra-cache expiry
        # (Unbound), re-rank timers (Windows), or exploration
        # (PowerDNS, random, round-robin).
        dead, healthy = "10.0.0.1", "10.0.0.2"
        addresses = [dead, healthy]
        selector = make_selector(name, seed)
        cache = InfrastructureCache()
        tick = 0
        for _ in range(5):  # short outage: dead times out when tried
            now = tick * self.DT
            choice = selector.select(addresses, cache, now)
            if choice == dead:
                selector.on_timeout(dead, addresses, cache, now)
            else:
                selector.on_response(
                    healthy, healthy_rtt, addresses, cache, now
                )
            tick += 1
        recovered_picks = 0
        for _ in range(250):  # recovery: both servers answer
            now = tick * self.DT
            choice = selector.select(addresses, cache, now)
            rtt = 30.0 if choice == dead else healthy_rtt
            selector.on_response(choice, rtt, addresses, cache, now)
            if choice == dead:
                recovered_picks += 1
            tick += 1
        assert recovered_picks >= 1


DOMAIN = "ourtestdomain.nl."


class TestResolverServfailUnderTotalOutage:
    """All-NS-down through the real resolver: SERVFAIL, never a hang."""

    @pytest.mark.parametrize("name", sorted(SELECTOR_CLASSES))
    def test_total_fault_outage_servfails_bounded(self, name):
        from repro.core.deployment import Deployment

        network = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=0.0), seed=1
            )
        )
        deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
        addresses = deployment.deploy(network)
        network.faults = FaultPlan(
            Scenario(name="dark", events=(NsOutage("*", 0.0, 1e9),)),
            seed=2,
            all_addresses=addresses,
        )
        resolver = RecursiveResolver(
            "10.53.0.1",
            PROBE_CITIES["AMS"],
            network,
            SELECTOR_CLASSES[name](rng=random.Random(3)),
            rng=random.Random(4),
            record_exchanges=True,
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        result = resolver.resolve(f"x.probe.{DOMAIN}", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        assert not result.succeeded
        assert len(result.exchanges) <= resolver.max_retries + 1


class TestInfraCacheProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 1000.0), st.floats(0.0, 5000.0)),
            min_size=1,
            max_size=30,
        )
    )
    def test_srtt_stays_within_sample_bounds(self, samples):
        # EWMA of positive samples stays within [min, max] of samples.
        cache = InfrastructureCache(ttl_s=1e9)
        values = []
        for rtt, now in samples:
            cache.observe_rtt("10.0.0.1", rtt, now=sorted(s[1] for s in samples)[0])
            values.append(rtt)
        srtt = cache.stale_entry("10.0.0.1", 0.0).srtt_ms
        assert min(values) - 1e-6 <= srtt <= max(values) + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 1000.0), st.integers(1, 20))
    def test_decay_monotone(self, initial, decays):
        cache = InfrastructureCache(ttl_s=1e9)
        cache.observe_rtt("10.0.0.1", initial, now=0.0)
        previous = initial
        for _ in range(decays):
            cache.decay("10.0.0.1", now=0.0)
            current = cache.srtt("10.0.0.1", 0.0)
            assert current <= previous
            previous = current
