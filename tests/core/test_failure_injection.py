"""Failure injection: authoritatives dying mid-measurement.

The paper's fault-tolerance motivation (RFC 2182): a zone must survive
the loss of an authoritative.  We withdraw one NS mid-campaign and check
that resolvers fail over, the zone keeps answering, and traffic shifts
to the surviving NS.
"""

import random

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.atlas.probes import ProbeGenerator
from repro.core.deployment import Deployment
from repro.dns.types import Rcode, RRType
from repro.netsim.geo import PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.bind import BindSelector
from repro.resolvers.population import ResolverPopulation
from repro.resolvers.resolver import RecursiveResolver

DOMAIN = "ourtestdomain.nl."


def build(seed=1):
    network = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(seed))
    )
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(network)
    return network, deployment, addresses


class TestSingleResolverFailover:
    def test_failover_to_surviving_ns(self):
        network, deployment, addresses = build()
        resolver = RecursiveResolver(
            "10.53.0.1",
            PROBE_CITIES["AMS"],
            network,
            BindSelector(rng=random.Random(2)),
            rng=random.Random(3),
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        # Warm up: the resolver learns FRA is closest and prefers it.
        for tick in range(5):
            result = resolver.resolve(f"w{tick}.probe.{DOMAIN}", RRType.TXT)
            assert result.succeeded
            network.clock.advance(120.0)
        # Frankfurt dies.
        network.unregister(addresses[0])
        outcomes = []
        for tick in range(10):
            result = resolver.resolve(f"f{tick}.probe.{DOMAIN}", RRType.TXT)
            outcomes.append(result)
            network.clock.advance(120.0)
        # Every query is eventually answered by Sydney.
        assert all(r.succeeded for r in outcomes)
        assert all(r.served_by == "SYD" for r in outcomes)

    def test_timeout_penalty_recorded(self):
        network, deployment, addresses = build()
        resolver = RecursiveResolver(
            "10.53.0.1",
            PROBE_CITIES["AMS"],
            network,
            BindSelector(rng=random.Random(4)),
            rng=random.Random(5),
            record_exchanges=True,
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        resolver.resolve(f"a.probe.{DOMAIN}", RRType.TXT)
        learned = resolver.infra_cache.stale_entry(addresses[0], network.clock.now)
        assert learned is not None
        before = learned.srtt_ms
        network.unregister(addresses[0])
        result = resolver.resolve(f"b.probe.{DOMAIN}", RRType.TXT)
        if any(exchange.lost for exchange in result.exchanges):
            # The dead server's SRTT was penalized: a timeout lifts it to
            # at least the floor, and each later selection that passes
            # it over decays it by at most one factor.
            selector = resolver.selector
            entry = resolver.infra_cache.stale_entry(
                addresses[0], network.clock.now
            )
            assert entry is not None and entry.srtt_ms > before
            assert entry.srtt_ms >= (
                selector.timeout_floor_ms
                * selector.decay_factor ** len(result.exchanges)
            )

    def test_total_outage_is_servfail(self):
        network, deployment, addresses = build()
        resolver = RecursiveResolver(
            "10.53.0.1",
            PROBE_CITIES["AMS"],
            network,
            BindSelector(rng=random.Random(6)),
            rng=random.Random(7),
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        for address in addresses:
            network.unregister(address)
        result = resolver.resolve(f"x.probe.{DOMAIN}", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL


class TestPopulationFailover:
    def test_campaign_survives_mid_run_outage(self):
        network, deployment, addresses = build(seed=8)
        probes = ProbeGenerator(rng=random.Random(9)).generate(60)
        platform = AtlasPlatform(
            network, probes, ResolverPopulation(rng=random.Random(10)),
            rng=random.Random(11),
        )
        platform.build_vantage_points()
        platform.configure_zone(DOMAIN, addresses)

        before = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        network.unregister(addresses[0])  # FRA dies after 10 minutes
        after = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)

        ok_after = sum(obs.succeeded for obs in after.observations)
        assert ok_after / len(after.observations) > 0.95
        sites_after = {obs.site for obs in after.observations if obs.succeeded}
        assert sites_after == {"SYD"}
        # Before the outage both sites served traffic.
        sites_before = {obs.site for obs in before.observations if obs.succeeded}
        assert sites_before == {"FRA", "SYD"}

    def test_surviving_server_absorbs_all_load(self):
        network, deployment, addresses = build(seed=12)
        probes = ProbeGenerator(rng=random.Random(13)).generate(40)
        platform = AtlasPlatform(
            network, probes, ResolverPopulation(rng=random.Random(14)),
            rng=random.Random(15),
        )
        platform.build_vantage_points()
        platform.configure_zone(DOMAIN, addresses)
        platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0)
        syd_before = deployment.server_query_counts()["ns2-SYD"]
        network.unregister(addresses[0])
        platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0)
        counts = deployment.server_query_counts()
        syd_gain = counts["ns2-SYD"] - syd_before
        # SYD now carries essentially every query of the second campaign
        # (a handful may exhaust their retries against the dead server).
        vp_count = len(platform.vantage_points)
        assert syd_gain >= vp_count * 3 - 5
