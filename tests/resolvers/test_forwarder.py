"""Tests for the DNS forwarder (middlebox) model."""

import random

import pytest

from repro.core import deployment as deployment_module
from repro.core.deployment import Deployment
from repro.dns.types import Rcode, RRType
from repro.netsim.geo import PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.forwarder import DnsForwarder, ForwardPolicy
from repro.resolvers.naive import RandomSelector
from repro.resolvers.resolver import RecursiveResolver

DOMAIN = "ourtestdomain.nl."


def build_setup():
    network = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(1))
    )
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(network)

    def make_resolver(index):
        resolver = RecursiveResolver(
            f"10.53.0.{index}",
            PROBE_CITIES["AMS"],
            network,
            RandomSelector(rng=random.Random(index)),
            rng=random.Random(index + 100),
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        return resolver

    return network, deployment, make_resolver


@pytest.fixture
def setup():
    return build_setup()


class TestForwarding:
    def test_relays_and_answers(self, setup):
        _, _, make_resolver = setup
        forwarder = DnsForwarder("192.168.1.1", [make_resolver(1)])
        result = forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded
        assert forwarder.forwarded == 1

    def test_needs_upstreams(self):
        with pytest.raises(ValueError):
            DnsForwarder("192.168.1.1", [])

    def test_cache_serves_repeats(self, setup):
        _, _, make_resolver = setup
        upstream = make_resolver(1)
        forwarder = DnsForwarder("192.168.1.1", [upstream])
        forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        second = forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert second.from_cache
        assert forwarder.served_from_cache == 1
        assert forwarder.forwarded == 1  # only the first left the box

    def test_unique_labels_bypass_forwarder_cache(self, setup):
        _, _, make_resolver = setup
        forwarder = DnsForwarder("192.168.1.1", [make_resolver(1)])
        for index in range(4):
            result = forwarder.resolve(f"u{index}.probe.{DOMAIN}", RRType.TXT)
            assert not result.from_cache
        assert forwarder.forwarded == 4

    def test_cache_disabled(self, setup):
        _, _, make_resolver = setup
        forwarder = DnsForwarder(
            "192.168.1.1", [make_resolver(1)], cache_enabled=False
        )
        forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        second = forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        # The upstream's own record cache may answer, but the forwarder
        # always forwards.
        assert forwarder.forwarded == 2
        assert second.succeeded

    def test_cache_full_evicts_exactly_the_earliest_expiring(self, monkeypatch):
        # Every relayed query takes its RTT in virtual time, so 1000 of
        # them outlast the campaign's 5 s TXT TTL; an hour holds them all.
        monkeypatch.setattr(deployment_module, "TXT_TTL", 3600)
        network, _, make_resolver = build_setup()
        forwarder = DnsForwarder("192.168.1.1", [make_resolver(1)])
        cap = forwarder.cache.max_entries
        assert cap == 1000
        for index in range(cap):
            forwarder.resolve(f"c{index}.probe.{DOMAIN}", RRType.TXT)
        assert network.clock.now < 3600.0
        assert len(forwarder.cache) == cap
        forwarder.resolve(f"c{cap}.probe.{DOMAIN}", RRType.TXT)
        assert len(forwarder.cache) == cap
        assert forwarder.forwarded == cap + 1
        # c0 expires first and is the one victim (its repeat is relayed to
        # the upstream, whose own cache answers); everyone else still hits.
        served = []
        for index in range(cap + 1):
            before = forwarder.served_from_cache
            forwarder.resolve(f"c{index}.probe.{DOMAIN}", RRType.TXT)
            served.append(forwarder.served_from_cache - before)
        assert served == [0] + [1] * cap


class TestPolicies:
    def test_round_robin_spreads_upstreams(self, setup):
        _, _, make_resolver = setup
        upstreams = [make_resolver(1), make_resolver(2)]
        forwarder = DnsForwarder(
            "192.168.1.1",
            upstreams,
            policy=ForwardPolicy.ROUND_ROBIN,
            cache_enabled=False,
        )
        for index in range(8):
            forwarder.resolve(f"r{index}.probe.{DOMAIN}", RRType.TXT)
        assert upstreams[0].queries_sent == 4
        assert upstreams[1].queries_sent == 4

    def test_random_uses_both_eventually(self, setup):
        _, _, make_resolver = setup
        upstreams = [make_resolver(1), make_resolver(2)]
        forwarder = DnsForwarder(
            "192.168.1.1",
            upstreams,
            policy=ForwardPolicy.RANDOM,
            cache_enabled=False,
            rng=random.Random(3),
        )
        for index in range(20):
            forwarder.resolve(f"x{index}.probe.{DOMAIN}", RRType.TXT)
        assert upstreams[0].queries_sent > 0
        assert upstreams[1].queries_sent > 0

    def test_primary_sticks_to_first(self, setup):
        _, _, make_resolver = setup
        upstreams = [make_resolver(1), make_resolver(2)]
        forwarder = DnsForwarder(
            "192.168.1.1", upstreams, cache_enabled=False
        )
        for index in range(5):
            forwarder.resolve(f"p{index}.probe.{DOMAIN}", RRType.TXT)
        assert upstreams[0].queries_sent == 5
        assert upstreams[1].queries_sent == 0

    def test_failover_on_servfail(self, setup):
        network, _, make_resolver = setup
        # First upstream knows no zone -> SERVFAIL; second works.
        broken = RecursiveResolver(
            "10.53.9.9",
            PROBE_CITIES["AMS"],
            network,
            RandomSelector(rng=random.Random(9)),
        )
        working = make_resolver(2)
        forwarder = DnsForwarder(
            "192.168.1.1", [broken, working], cache_enabled=False
        )
        result = forwarder.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded
        # Subsequent queries go straight to the promoted upstream.
        result2 = forwarder.resolve(f"again.probe.{DOMAIN}", RRType.TXT)
        assert result2.succeeded
        assert result2.rcode == Rcode.NOERROR
