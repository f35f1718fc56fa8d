"""Tests for probe generation."""

import random
from collections import Counter

from repro.atlas.probes import Probe, ProbeGenerator
from repro.netsim.geo import Continent


class TestProbeGenerator:
    def test_count(self):
        probes = ProbeGenerator(rng=random.Random(1)).generate(500)
        assert len(probes) == 500

    def test_unique_ids_and_addresses(self):
        probes = ProbeGenerator(rng=random.Random(1)).generate(500)
        assert len({p.probe_id for p in probes}) == 500
        assert len({p.address for p in probes}) == 500

    def test_continent_skew_matches_atlas(self):
        probes = ProbeGenerator(rng=random.Random(2)).generate(4000)
        counts = Counter(probe.continent for probe in probes)
        eu_share = counts[Continent.EU] / 4000
        assert 0.65 < eu_share < 0.78
        assert counts[Continent.SA] < counts[Continent.NA]

    def test_custom_weights(self):
        generator = ProbeGenerator(
            rng=random.Random(3),
            continent_weights={Continent.OC: 1.0},
        )
        probes = generator.generate(50)
        assert all(p.continent == Continent.OC for p in probes)

    def test_asn_consistent_with_continent(self):
        generator = ProbeGenerator(rng=random.Random(4))
        probes = generator.generate(1000)
        asn_continent: dict[int, Continent] = {}
        for probe in probes:
            seen = asn_continent.setdefault(probe.asn, probe.continent)
            assert seen == probe.continent

    def test_reproducible(self):
        a = ProbeGenerator(rng=random.Random(5)).generate(100)
        b = ProbeGenerator(rng=random.Random(5)).generate(100)
        assert a == b

    def test_probe_location_in_continent(self):
        probes = ProbeGenerator(rng=random.Random(6)).generate(200)
        for probe in probes:
            assert probe.location.continent == probe.continent
