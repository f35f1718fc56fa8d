"""Tests for geography and the latency model."""

import math
import random
from statistics import correlation, fmean, pstdev

import pytest
from hypothesis import given, strategies as st

from repro.netsim.geo import (
    ATLAS_CONTINENT_WEIGHTS,
    DATACENTERS,
    PROBE_CITIES,
    Continent,
    GeoPoint,
    Location,
    cities_by_continent,
    great_circle_km,
)
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork


class TestGeoPoint:
    def test_valid(self):
        GeoPoint(0.0, 0.0)
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_out_of_range(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestGreatCircle:
    def test_zero_distance(self):
        p = GeoPoint(52.0, 4.0)
        assert great_circle_km(p, p) == 0.0

    def test_symmetry(self):
        a, b = GeoPoint(52.37, 4.89), GeoPoint(-33.87, 151.21)
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_known_distance_ams_fra(self):
        ams = PROBE_CITIES["AMS"].point
        fra = DATACENTERS["FRA"].point
        assert great_circle_km(ams, fra) == pytest.approx(360, rel=0.15)

    def test_quarter_circumference(self):
        # Pole to equator is a quarter of the circumference.
        d = great_circle_km(GeoPoint(90, 0), GeoPoint(0, 0))
        assert d == pytest.approx(math.pi * 6371 / 2, rel=0.001)

    @given(
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-180, max_value=180),
    )
    def test_bounds_property(self, lat1, lon1, lat2, lon2):
        d = great_circle_km(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        assert 0 <= d <= math.pi * 6371 + 1e-6


class TestLocationTables:
    def test_paper_datacenters_present(self):
        assert set(DATACENTERS) == {"GRU", "NRT", "DUB", "FRA", "SYD", "IAD", "SFO"}

    def test_datacenter_continents(self):
        assert DATACENTERS["FRA"].continent == Continent.EU
        assert DATACENTERS["SYD"].continent == Continent.OC
        assert DATACENTERS["GRU"].continent == Continent.SA
        assert DATACENTERS["NRT"].continent == Continent.AS
        assert DATACENTERS["IAD"].continent == Continent.NA

    def test_every_continent_has_probe_cities(self):
        for continent in Continent:
            assert cities_by_continent(continent), continent

    def test_probe_city_codes_unique(self):
        assert len(PROBE_CITIES) == len(set(PROBE_CITIES))

    def test_atlas_weights_sum_to_one(self):
        assert sum(ATLAS_CONTINENT_WEIGHTS.values()) == pytest.approx(1.0, abs=0.01)

    def test_atlas_weights_europe_heavy(self):
        assert ATLAS_CONTINENT_WEIGHTS[Continent.EU] > 0.5


class TestLatencyModel:
    def test_base_rtt_deterministic(self):
        model = LatencyModel()
        a, b = PROBE_CITIES["AMS"].point, DATACENTERS["FRA"].point
        assert model.base_rtt_ms(a, b) == model.base_rtt_ms(a, b)

    def test_base_rtt_grows_with_distance(self):
        model = LatencyModel()
        ams = PROBE_CITIES["AMS"].point
        assert model.base_rtt_ms(ams, DATACENTERS["FRA"].point) < model.base_rtt_ms(
            ams, DATACENTERS["IAD"].point
        ) < model.base_rtt_ms(ams, DATACENTERS["SYD"].point)

    def test_min_rtt_floor(self):
        model = LatencyModel(LatencyParameters(access_delay_ms=0.0, min_rtt_ms=1.0))
        p = PROBE_CITIES["AMS"].point
        assert model.base_rtt_ms(p, p) == 1.0

    def test_eu_to_fra_in_paper_band(self):
        # Paper Table 2: EU VPs see FRA at a median of ~39 ms.
        model = LatencyModel()
        rtts = [
            model.base_rtt_ms(city.point, DATACENTERS["FRA"].point)
            for city in cities_by_continent(Continent.EU)
        ]
        rtts.sort()
        median = rtts[len(rtts) // 2]
        assert 20 <= median <= 70

    def test_eu_to_syd_in_paper_band(self):
        # Paper Table 2: EU VPs see SYD at a median of ~355 ms.
        model = LatencyModel()
        rtts = sorted(
            model.base_rtt_ms(city.point, DATACENTERS["SYD"].point)
            for city in cities_by_continent(Continent.EU)
        )
        median = rtts[len(rtts) // 2]
        assert 250 <= median <= 450

    def test_sample_jitter_centered_on_base(self):
        model = LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(7))
        a, b = PROBE_CITIES["AMS"].point, DATACENTERS["FRA"].point
        base = model.base_rtt_ms(a, b)
        stream = model.pair_stream("client", "10.0.0.53")
        samples = [model.sample_exchange(stream, base) for _ in range(500)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(base, rel=0.05)
        assert any(s != base for s in samples)

    def test_loss_rate_respected(self):
        model = LatencyModel(
            LatencyParameters(loss_rate=0.2), rng=random.Random(3)
        )
        losses = sum(model.is_lost() for _ in range(5000))
        assert 0.15 < losses / 5000 < 0.25

    def test_zero_loss(self):
        model = LatencyModel(LatencyParameters(loss_rate=0.0))
        assert not any(model.is_lost() for _ in range(100))

    def test_seeded_reproducibility(self):
        a, b = PROBE_CITIES["AMS"].point, DATACENTERS["SYD"].point

        def rtts(model):
            base = model.base_rtt_ms(a, b)
            stream = model.pair_stream("client", "10.0.0.53")
            return [model.sample_exchange(stream, base) for _ in range(10)]

        one = LatencyModel(rng=random.Random(42))
        two = LatencyModel(rng=random.Random(42))
        assert rtts(one) == rtts(two)


A_POINT, B_POINT = PROBE_CITIES["AMS"].point, DATACENTERS["FRA"].point
PAIRS = [("client-1", "10.0.0.53"), ("client-1", "10.0.1.53"),
         ("client-2", "10.0.0.53"), ("client-2", "10.0.1.53")]


def exchange(model: LatencyModel, pair: tuple[str, str], streams: dict):
    """The pair's next RTT (``None`` when lost), its stream kept in
    ``streams`` as the network keeps one per pair."""
    stream = streams.get(pair)
    if stream is None:
        stream = streams[pair] = model.pair_stream(*pair)
    return model.sample_exchange(stream, model.base_rtt_ms(A_POINT, B_POINT))


class TestPairStreams:
    """``sample_exchange``: a pair's n-th exchange is a function of
    (seed, client, destination, n) and of nothing else."""

    @given(st.lists(st.sampled_from(PAIRS), max_size=60))
    def test_any_interleaving_gives_each_pair_its_solo_sequence(self, order):
        params = LatencyParameters(loss_rate=0.3)
        together, streams = LatencyModel(params, seed=11), {}
        seen: dict[tuple[str, str], list] = {}
        for pair in order:
            seen.setdefault(pair, []).append(exchange(together, pair, streams))
        for pair, sequence in seen.items():
            alone, own = LatencyModel(params, seed=11), {}
            assert [exchange(alone, pair, own) for _ in sequence] == sequence

    def test_a_lost_exchange_advances_the_pair_like_a_delivered_one(self):
        lossy = LatencyModel(LatencyParameters(loss_rate=1.0), seed=5)
        clean = LatencyModel(LatencyParameters(loss_rate=0.0), seed=5)
        lossy_streams, clean_streams = {}, {}
        for _ in range(5):
            assert exchange(lossy, PAIRS[0], lossy_streams) is None
            assert exchange(clean, PAIRS[0], clean_streams) is not None
        assert lossy_streams[PAIRS[0]].state == clean_streams[PAIRS[0]].state

    def test_seed_and_pair_separate_streams(self):
        def first(seed, pair):
            return exchange(LatencyModel(seed=seed), pair, {})

        assert first(1, PAIRS[0]) == first(1, PAIRS[0])
        assert first(1, PAIRS[0]) != first(2, PAIRS[0])
        assert first(1, PAIRS[0]) != first(1, PAIRS[1])
        # (a, b) and (b, a) are different pairs.
        assert first(1, ("x", "y")) != first(1, ("y", "x"))

    def test_statistics_over_100k_exchanges_across_200_pairs(self):
        params = LatencyParameters(loss_rate=0.05, jitter_sigma=0.08)
        model = LatencyModel(params, seed=20170412)
        base = model.base_rtt_ms(A_POINT, B_POINT)
        pairs = [(f"client-{i % 20}", f"10.0.{i // 20}.53") for i in range(200)]
        per_pair = 500
        lost = 0
        logs: dict[tuple[str, str], list[float]] = {pair: [] for pair in pairs}
        streams: dict = {}
        # Round-robin, as a campaign interleaves them.
        for _ in range(per_pair):
            for pair in pairs:
                rtt = exchange(model, pair, streams)
                if rtt is None:
                    lost += 1
                else:
                    logs[pair].append(math.log(rtt / base))
        total = per_pair * len(pairs)
        assert total == 100_000

        three_sigma = 3 * math.sqrt(params.loss_rate * (1 - params.loss_rate) / total)
        assert abs(lost / total - params.loss_rate) < three_sigma

        jitter = [x for log in logs.values() for x in log]
        assert abs(fmean(jitter)) < 0.002
        assert abs(pstdev(jitter) / params.jitter_sigma - 1.0) < 0.02

        # Within a pair consecutive exchanges are uncorrelated (pooled
        # lag-1 over every pair's own sequence)...
        heads = [x for log in logs.values() for x in log[:-1]]
        tails = [x for log in logs.values() for x in log[1:]]
        assert abs(correlation(heads, tails)) < 0.02
        # ...and so are two pairs that differ in one token only.
        for one, other in ((pairs[0], pairs[1]), (pairs[0], pairs[20])):
            n = min(len(logs[one]), len(logs[other]))
            assert abs(correlation(logs[one][:n], logs[other][:n])) < 0.2
        every_first = [log[0] for log in logs.values()]
        every_second = [log[1] for log in logs.values()]
        assert abs(correlation(every_first, every_second)) < 0.3

    def test_pair_table_holds_bare_integers(self):
        # The network keeps one slot per pair; the slot's stream state
        # is one integer.
        network = SimNetwork(latency=LatencyModel(seed=9))
        for dst in {dst for _, dst in PAIRS}:
            network.register_host(dst, DATACENTERS["FRA"], lambda *args: b"")
        for pair in PAIRS:
            network.sample_path(PROBE_CITIES["AMS"], *pair)
        assert set(network._paths) == set(PAIRS)
        assert all(type(slot.state) is int for slot in network._paths.values())
