"""Tests for the vantage-point platform and measurement campaigns."""

import random
from collections import Counter

import pytest

from repro.atlas.platform import AtlasPlatform
from repro.atlas.probes import ProbeGenerator
from repro.core.deployment import Deployment
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.population import ResolverPopulation

DOMAIN = "ourtestdomain.nl."


@pytest.fixture
def setup():
    network = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(1))
    )
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(network)
    probes = ProbeGenerator(rng=random.Random(2)).generate(60)
    platform = AtlasPlatform(
        network, probes, ResolverPopulation(rng=random.Random(3)),
        rng=random.Random(4),
    )
    platform.build_vantage_points()
    platform.configure_zone(DOMAIN, addresses)
    return network, deployment, platform


class TestVantagePoints:
    def test_every_probe_has_at_least_one_vp(self, setup):
        _, _, platform = setup
        probe_ids = {vp.probe.probe_id for vp in platform.vantage_points}
        assert len(probe_ids) == 60

    def test_some_probes_have_two_recursives(self, setup):
        _, _, platform = setup
        counts: dict[int, int] = {}
        for vp in platform.vantage_points:
            counts[vp.probe.probe_id] = counts.get(vp.probe.probe_id, 0) + 1
        assert any(count == 2 for count in counts.values())

    def test_vp_ids_unique(self, setup):
        _, _, platform = setup
        ids = [vp.vp_id for vp in platform.vantage_points]
        assert len(ids) == len(set(ids))

    def test_resolver_sharing_within_as(self):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0))
        )
        probes = ProbeGenerator(rng=random.Random(7)).generate(300)
        platform = AtlasPlatform(
            network, probes, ResolverPopulation(rng=random.Random(8)),
            rng=random.Random(9), resolver_sharing_share=1.0,
        )
        platform.build_vantage_points()
        by_as: dict[int, set[str]] = {}
        for vp in platform.vantage_points:
            by_as.setdefault(vp.probe.asn, set()).add(vp.resolver.address)
        shared = [asn for asn, addresses in by_as.items() if len(addresses) == 1]
        multi_probe_ases = [
            asn for asn in by_as
            if sum(1 for p in probes if p.asn == asn) > 1
        ]
        assert multi_probe_ases  # sanity: sharing had a chance to happen
        # With sharing forced on (and no second resolvers drawn for these),
        # most multi-probe ASes collapse onto few resolver addresses.
        assert len(shared) > 0


class TestMeasurement:
    def test_observation_counts(self, setup):
        _, _, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        ticks = 5
        assert len(run.observations) == ticks * len(platform.vantage_points)

    def test_unique_labels_per_vp_and_tick(self, setup):
        _, _, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        qnames = [obs.qname for obs in run.observations]
        assert len(qnames) == len(set(qnames))

    def test_sites_identified(self, setup):
        _, _, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        sites = {obs.site for obs in run.observations if obs.succeeded}
        assert sites <= {"FRA", "SYD"}
        assert sites  # at least one site observed

    def test_clock_advances(self, setup):
        network, _, platform = setup
        platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        assert network.clock.now == pytest.approx(600.0)

    def test_timestamps_span_run(self, setup):
        _, _, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        stamps = {obs.timestamp for obs in run.observations}
        assert stamps == {0.0, 120.0, 240.0, 360.0, 480.0}

    def test_server_side_totals_match_client_side(self, setup):
        network, deployment, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        client_total = sum(1 for obs in run.observations if obs.succeeded)
        server_total = sum(deployment.server_query_counts().values())
        # Server sees every query incl. retries; with loss_rate=0 they match.
        assert server_total == client_total

    def test_by_vp_grouping(self, setup):
        _, _, platform = setup
        run = platform.measure(DOMAIN.rstrip("."), interval_s=120.0, duration_s=600.0)
        grouped = Counter(obs.vp_id for obs in run.observations)
        assert run.vp_count == len(grouped)
        assert all(rows == 5 for rows in grouped.values())
