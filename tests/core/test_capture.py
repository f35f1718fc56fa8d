"""Tests for wire-level capture."""

import random

import pytest

from repro.core.capture import Capture, CapturingNetwork, load_capture, save_capture
from repro.core.deployment import Deployment
from repro.dns.types import RRType
from repro.netsim.geo import PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.naive import RandomSelector
from repro.resolvers.resolver import RecursiveResolver

DOMAIN = "ourtestdomain.nl."


@pytest.fixture
def capturing_setup():
    inner = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(1))
    )
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(inner)
    network = CapturingNetwork(inner)
    resolver = RecursiveResolver(
        "10.53.0.1",
        PROBE_CITIES["AMS"],
        network,
        RandomSelector(rng=random.Random(2)),
        rng=random.Random(3),
    )
    resolver.add_stub_zone(DOMAIN, addresses)
    return network, resolver, addresses


class TestCapturingNetwork:
    def test_records_every_exchange(self, capturing_setup):
        network, resolver, _ = capturing_setup
        for index in range(5):
            resolver.resolve(f"c{index}.probe.{DOMAIN}", RRType.TXT)
        assert len(network.capture) == 5

    def test_wire_bytes_decode_to_messages(self, capturing_setup):
        network, resolver, _ = capturing_setup
        resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        exchange = network.capture.exchanges[0]
        query = exchange.query()
        response = exchange.response()
        assert query.question.name.to_text() == f"probe.{DOMAIN}"
        assert response.msg_id == query.msg_id
        assert response.answers

    def test_attribute_forwarding(self, capturing_setup):
        network, _, addresses = capturing_setup
        assert network.knows(addresses[0])
        assert network.clock.now == 0.0

    def test_filters(self, capturing_setup):
        network, resolver, addresses = capturing_setup
        for index in range(6):
            resolver.resolve(f"f{index}.probe.{DOMAIN}", RRType.TXT)
        per_server = sum(
            len(network.capture.for_server(address)) for address in addresses
        )
        assert per_server == 6
        assert len(network.capture.for_client("10.53.0.1")) == 6

    def test_loss_rate_zero_without_loss(self, capturing_setup):
        network, resolver, _ = capturing_setup
        resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert network.capture.loss_rate() == 0.0


class TestResolverBehindProxy:
    """Resolvers send through ``transmit``; the proxy must see it all."""

    def _resolver(self, loss_rate):
        inner = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=loss_rate), rng=random.Random(5)
            )
        )
        addresses = Deployment.from_sites(DOMAIN, ("FRA", "SYD")).deploy(inner)
        network = CapturingNetwork(inner)
        resolver = RecursiveResolver(
            "10.53.0.1",
            PROBE_CITIES["AMS"],
            network,
            RandomSelector(rng=random.Random(2)),
            rng=random.Random(3),
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        return network, resolver

    def test_one_exchange_per_attempt_lost_ones_included(self):
        network, resolver = self._resolver(loss_rate=0.5)
        attempts = lost = 0
        for index in range(20):
            result = resolver.resolve(f"l{index}.probe.{DOMAIN}", RRType.TXT)
            attempts += result.attempts
            lost += result.attempts - (1 if result.succeeded else 0)
        assert len(network.capture) == attempts == resolver.queries_sent
        assert lost > 0
        captured_lost = [
            ex for ex in network.capture if ex.response_wire is None
        ]
        assert len(captured_lost) == lost
        assert all(
            ex.rtt_ms is None and ex.served_by == "" for ex in captured_lost
        )
        assert network.capture.loss_rate() == pytest.approx(lost / attempts)

    def test_exchanges_are_stamped_at_send_time(self):
        network, resolver = self._resolver(loss_rate=1.0)
        resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        wait_s = resolver.timeout_ms / 1000.0
        # 1 try + 3 retries, each sent one timeout after the previous.
        assert [ex.timestamp for ex in network.capture] == [
            attempt * wait_s for attempt in range(resolver.max_retries + 1)
        ]
        assert network.capture.loss_rate() == 1.0

    def test_answered_exchange_keeps_send_time_not_delivery_time(self):
        network, resolver = self._resolver(loss_rate=0.0)
        result = resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        (exchange,) = network.capture.exchanges
        assert exchange.timestamp == 0.0
        assert exchange.rtt_ms == result.rtt_ms
        assert network.clock.now == pytest.approx(result.rtt_ms / 1000.0)


class TestPersistence:
    def test_roundtrip(self, capturing_setup, tmp_path):
        network, resolver, _ = capturing_setup
        for index in range(4):
            resolver.resolve(f"p{index}.probe.{DOMAIN}", RRType.TXT)
        path = tmp_path / "capture.jsonl"
        written = save_capture(network.capture, path)
        assert written == 4
        loaded = load_capture(path)
        assert len(loaded) == 4
        assert loaded.exchanges == network.capture.exchanges

    def test_loaded_wire_still_decodes(self, capturing_setup, tmp_path):
        network, resolver, _ = capturing_setup
        resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        path = tmp_path / "capture.jsonl"
        save_capture(network.capture, path)
        loaded = load_capture(path)
        assert loaded.exchanges[0].response().answers

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "nope"}\n')
        with pytest.raises(ValueError):
            load_capture(path)

    def test_lost_exchange_roundtrip(self, tmp_path):
        capture = Capture()
        from repro.core.capture import CapturedExchange

        capture.exchanges.append(
            CapturedExchange(1.0, "a", "b", "", None, b"\x00\x01", None)
        )
        path = tmp_path / "capture.jsonl"
        save_capture(capture, path)
        loaded = load_capture(path)
        assert loaded.exchanges[0].response_wire is None
        assert loaded.loss_rate() == 1.0
