"""Tests for the simulated network and anycast catchments."""

import dataclasses
import random

import pytest

from repro.netsim.anycast import AnycastGroup, AnycastSite
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import DeliveryError, SimNetwork
from repro.netsim.sched import EventKernel
from repro.telemetry import Telemetry

from ..telemetry.test_tracing import spans_named


def echo_handler(tag: str):
    def handler(payload: bytes, src: str, now: float):
        return tag.encode() + b":" + payload

    return handler


@pytest.fixture
def network():
    return SimNetwork(latency=LatencyModel(LatencyParameters(loss_rate=0.0)))


class TestRegistration:
    def test_register_and_route(self, network):
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("fra"))
        location, handler, code = network.route(
            PROBE_CITIES["AMS"], "client", "10.0.0.1"
        )
        assert code == "FRA"
        assert handler(b"x", "c", 0.0) == b"fra:x"

    def test_duplicate_address_rejected(self, network):
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("a"))
        with pytest.raises(ValueError):
            network.register_host("10.0.0.1", DATACENTERS["SYD"], echo_handler("b"))

    def test_unknown_address(self, network):
        with pytest.raises(DeliveryError):
            network.route(PROBE_CITIES["AMS"], "client", "10.255.0.1")
        assert not network.knows("10.255.0.1")

    def test_unregister(self, network):
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("a"))
        network.unregister("10.0.0.1")
        assert not network.knows("10.0.0.1")


class TestRoundTrip:
    def test_response_and_rtt(self, network):
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("fra"))
        trip = network.round_trip(PROBE_CITIES["AMS"], "10.9.0.1", "10.0.0.1", b"q")
        assert trip.response == b"fra:q"
        assert not trip.lost
        assert trip.served_by == "FRA"
        assert 10 < trip.rtt_ms < 80

    def test_farther_site_slower(self, network):
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("fra"))
        network.register_host("10.0.0.2", DATACENTERS["SYD"], echo_handler("syd"))
        fra = network.round_trip(PROBE_CITIES["AMS"], "c", "10.0.0.1", b"q")
        syd = network.round_trip(PROBE_CITIES["AMS"], "c", "10.0.0.2", b"q")
        assert syd.rtt_ms > fra.rtt_ms * 3

    def test_loss(self):
        network = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=1.0), rng=random.Random(1)
            )
        )
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("fra"))
        trip = network.round_trip(PROBE_CITIES["AMS"], "c", "10.0.0.1", b"q")
        assert trip.lost
        assert trip.response is None
        assert trip.rtt_ms is None

    def test_handler_returning_none(self, network):
        network.register_host(
            "10.0.0.1", DATACENTERS["FRA"], lambda p, s, t: None
        )
        trip = network.round_trip(PROBE_CITIES["AMS"], "c", "10.0.0.1", b"q")
        assert trip.response is None
        assert not trip.lost


class TestTracedExchangesAreTheSameExchanges:
    """Telemetry adds spans to an exchange; it draws and delivers nothing
    differently.  Same seed, traced and untraced: equal results, and the
    pair streams left in the same state."""

    CLIENT = PROBE_CITIES["AMS"]

    def make_network(self, telemetry=None):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.4), seed=7),
            telemetry=telemetry,
        )
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("fra"))
        network.register_host("10.0.0.2", DATACENTERS["SYD"], lambda p, s, t: None)
        return network

    def exchanges(self, send):
        return [
            send(f"10.9.0.{index % 3}", f"10.0.0.{1 + index % 2}")
            for index in range(40)
        ]

    def next_draws(self, network):
        return [
            network.sample_path(self.CLIENT, f"10.9.0.{index}", dst)[:2]
            for index in range(3)
            for dst in ("10.0.0.1", "10.0.0.2")
        ]

    def check(self, run):
        telemetry = Telemetry.enabled_bundle()
        plain, traced = self.make_network(), self.make_network(telemetry)
        trips, traced_trips = run(plain), run(traced)
        assert traced_trips == trips
        assert {trip.lost for trip in trips} == {True, False}
        assert self.next_draws(traced) == self.next_draws(plain)
        spans = spans_named(telemetry.tracer, "net.round_trip")
        assert len(spans) == len(trips)
        assert [bool(span.attributes["lost"]) for span in spans] == [
            trip.lost for trip in trips
        ]

    def test_round_trip(self):
        def run(network):
            return self.exchanges(
                lambda client, dst: network.round_trip(
                    self.CLIENT, client, dst, b"q"
                )
            )

        self.check(run)

    def test_transmit(self):
        def run(network):
            kernel = EventKernel(clock=network.clock)
            trips = []
            self.exchanges(
                lambda client, dst: network.transmit(
                    kernel, self.CLIENT, client, dst, b"q", trips.append
                )
            )
            kernel.run()
            return trips

        self.check(run)


class TestSwappedLatencyParameters:
    """New ``network.latency.params`` apply from the next exchange on:
    base RTT and the path-diversity multiplier are derived from them,
    and whatever the network keeps per pair must not outlive them."""

    def rtts(self, params, swap_to=None):
        """Three exchanges' RTTs, ``params`` swapped after the first."""
        network = SimNetwork(latency=LatencyModel(params, seed=3))
        network.register_host("10.0.0.1", DATACENTERS["FRA"], echo_handler("f"))
        out = []
        for index in range(3):
            if index == 1 and swap_to is not None:
                network.latency.params = swap_to
            trip = network.round_trip(PROBE_CITIES["AMS"], "c", "10.0.0.1", b"q")
            out.append(trip.rtt_ms)
        return out

    @pytest.mark.parametrize(
        "change",
        [
            {"access_delay_ms": 60.0, "path_inflation": 3.0},
            {"path_diversity_sigma": 0.6},
        ],
        ids=["base_rtt", "path_diversity_sigma"],
    )
    def test_swap_takes_effect_on_the_next_exchange(self, change):
        old = LatencyParameters(loss_rate=0.0)
        new = dataclasses.replace(old, **change)
        swapped = self.rtts(old, swap_to=new)
        assert swapped[:1] == self.rtts(old)[:1]
        # The pair stream keeps its position across the swap.
        assert swapped[1:] == self.rtts(new)[1:]
        assert swapped[1:] != self.rtts(old)[1:]


class TestAnycast:
    def make_group(self, codes, suboptimal_rate=0.0):
        group = AnycastGroup("192.0.2.53", suboptimal_rate=suboptimal_rate)
        for code in codes:
            group.add_site(
                AnycastSite(code, DATACENTERS[code], echo_handler(code.lower()))
            )
        return group

    def test_catchment_nearest_site(self, network):
        group = self.make_group(["FRA", "SYD", "IAD"])
        network.register_anycast(group)
        trip = network.round_trip(PROBE_CITIES["AMS"], "client-1", "192.0.2.53", b"q")
        assert trip.served_by == "FRA"
        trip = network.round_trip(PROBE_CITIES["AKL"], "client-1", "192.0.2.53", b"q")
        assert trip.served_by == "SYD"

    def test_catchment_stable_per_client(self, network):
        group = self.make_group(["FRA", "SYD", "IAD"], suboptimal_rate=0.5)
        network.register_anycast(group)
        sites = {
            network.round_trip(PROBE_CITIES["AMS"], "client-7", "192.0.2.53", b"q").served_by
            for _ in range(20)
        }
        assert len(sites) == 1

    def test_suboptimal_fraction(self, network):
        latency = LatencyModel(LatencyParameters(loss_rate=0.0))
        group = self.make_group(["FRA", "SYD", "IAD"], suboptimal_rate=0.3)
        suboptimal = 0
        for i in range(1000):
            site = group.catchment(PROBE_CITIES["AMS"], f"client-{i}", latency)
            if site.code != "FRA":
                suboptimal += 1
        assert 0.2 < suboptimal / 1000 < 0.4

    def test_zero_suboptimal_always_nearest(self):
        latency = LatencyModel()
        group = self.make_group(["FRA", "SYD"])
        for i in range(100):
            assert group.catchment(PROBE_CITIES["AMS"], f"c{i}", latency).code == "FRA"

    def test_empty_group_rejected(self):
        group = AnycastGroup("192.0.2.53")
        with pytest.raises(ValueError):
            group.catchment(PROBE_CITIES["AMS"], "c", LatencyModel())

    def test_anycast_unicast_share_namespace(self, network):
        network.register_host("192.0.2.53", DATACENTERS["FRA"], echo_handler("a"))
        with pytest.raises(ValueError):
            network.register_anycast(self.make_group(["SYD"]))
