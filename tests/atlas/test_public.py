"""Tests for anycast public resolver services."""

import random

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.atlas.probes import Probe, ProbeGenerator
from repro.atlas.public import PublicResolverService
from repro.core.deployment import Deployment
from repro.netsim.anycast import AnycastGroup, AnycastSite
from repro.netsim.geo import DATACENTERS, PROBE_CITIES, Continent
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.population import ResolverPopulation

DOMAIN = "ourtestdomain.nl."


@pytest.fixture
def network():
    return SimNetwork(
        latency=LatencyModel(
            LatencyParameters(loss_rate=0.0, path_diversity_sigma=0.0),
            rng=random.Random(1),
        )
    )


@pytest.fixture
def service(network):
    return PublicResolverService.build(
        "10.99.99.99", network, rng=random.Random(2)
    )


def make_probe(probe_id, city, continent_ok=True):
    return Probe(probe_id, PROBE_CITIES[city], 1000 + probe_id, f"172.20.0.{probe_id + 1}")


class TestService:
    def test_instances_share_address(self, service):
        addresses = {r.address for r in service.instances.values()}
        assert addresses == {"10.99.99.99"}
        assert service.instance_count == 6

    def test_instances_have_independent_caches(self, service):
        instances = list(service.instances.values())
        assert instances[0].infra_cache is not instances[1].infra_cache
        assert instances[0].record_cache is not instances[1].record_cache

    def test_catchment_maps_probe_to_nearby_instance(self, network, service):
        eu_probe = make_probe(0, "BER")
        oc_probe = make_probe(1, "AKL")
        eu_instance = service.instance_for(eu_probe, network)
        oc_instance = service.instance_for(oc_probe, network)
        assert eu_instance.location.code == "AMS"
        assert oc_instance.location.code == "SYDC"

    def test_catchment_stable(self, network, service):
        probe = make_probe(3, "WAW")
        instances = {
            id(service.instance_for(probe, network)) for _ in range(10)
        }
        assert len(instances) == 1

    def test_instances_share_a_stream_but_not_a_path(self):
        # Every instance sends from the one service address, so the
        # network holds one latency stream per (address, destination);
        # base RTT and anycast catchment still follow each instance's
        # own location.  Each interleaved exchange must equal the same
        # exchange in a run where that instance sent all of them.
        def build():
            network = SimNetwork(
                latency=LatencyModel(LatencyParameters(loss_rate=0.0), seed=5)
            )
            network.register_host("10.0.0.1", DATACENTERS["FRA"], lambda *a: b"")
            group = AnycastGroup("192.0.2.53", suboptimal_rate=0.0)
            for code in ("FRA", "SYD"):
                group.add_site(AnycastSite(code, DATACENTERS[code], lambda *a: b""))
            network.register_anycast(group)
            service = PublicResolverService.build(
                "10.99.99.99", network, rng=random.Random(2)
            )
            return network, service

        def exchanges(codes, dst):
            network, service = build()
            out = []
            for code in codes:
                instance = service.instances[code]
                trip = network.round_trip(
                    instance.location, instance.address, dst, b"q"
                )
                out.append((trip.rtt_ms, trip.served_by))
            return out

        order = ["AMS", "SYDC", "SYDC", "AMS", "SYDC", "AMS"]
        for dst, sites in (
            ("10.0.0.1", {"AMS": "FRA", "SYDC": "FRA"}),
            ("192.0.2.53", {"AMS": "FRA", "SYDC": "SYD"}),
        ):
            together = exchanges(order, dst)
            alone = {code: exchanges([code] * len(order), dst) for code in sites}
            assert together == [alone[code][i] for i, code in enumerate(order)]
            assert [served for _, served in together] == [sites[c] for c in order]
        # The two instances' paths differ: Sydney is far from Frankfurt.
        (ams_rtt, _), (syd_rtt, _) = exchanges(["AMS", "SYDC"], "10.0.0.1")
        assert syd_rtt > 3 * ams_rtt

    def test_resolution_through_service(self, network, service):
        deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
        addresses = deployment.deploy(network)
        service.add_stub_zone(DOMAIN, addresses)
        from repro.dns.types import RRType

        instance = service.instance_for(make_probe(5, "PAR"), network)
        result = instance.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded


class TestPlatformIntegration:
    def test_share_requires_services(self, network):
        probes = ProbeGenerator(rng=random.Random(3)).generate(10)
        with pytest.raises(ValueError):
            AtlasPlatform(
                network, probes, ResolverPopulation(rng=random.Random(4)),
                public_resolver_share=0.5,
            )

    def test_public_vps_created(self, network, service):
        deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
        addresses = deployment.deploy(network)
        probes = ProbeGenerator(rng=random.Random(5)).generate(80)
        platform = AtlasPlatform(
            network, probes, ResolverPopulation(rng=random.Random(6)),
            rng=random.Random(7),
            public_services=[service],
            public_resolver_share=0.3,
        )
        platform.build_vantage_points()
        service.add_stub_zone(DOMAIN, addresses)
        platform.configure_zone(DOMAIN, addresses)
        public_vps = [vp for vp in platform.vantage_points if vp.impl_name == "public"]
        assert 10 <= len(public_vps) <= 40
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=360.0)
        public_obs = [o for o in run.observations if o.impl_name == "public"]
        assert public_obs
        assert all(obs.succeeded for obs in public_obs)
        assert all(obs.recursive_address == "10.99.99.99" for obs in public_obs)

    def test_public_instance_latency_is_instance_local(self, network, service):
        # An EU probe behind the public service measures RTTs from the
        # AMS instance — near FRA — even though the probe could be
        # anywhere in the EU.
        deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
        addresses = deployment.deploy(network)
        service.add_stub_zone(DOMAIN, addresses)
        from repro.dns.types import RRType

        instance = service.instance_for(make_probe(9, "HEL"), network)
        for index in range(6):
            instance.resolve(f"q{index}.probe.{DOMAIN}", RRType.TXT)
        fra_srtt = instance.infra_cache.srtt(addresses[0], network.clock.now)
        assert fra_srtt is not None and fra_srtt < 80.0
