"""Attempt accounting vs. opt-in exchange recording.

Campaigns only need the attempt *count*; allocating an
:class:`ExchangeRecord` per attempt is opt-in (``record_exchanges``),
auto-gated on telemetry/cost-ledger use.  These tests pin that the
count is always right, that recording stays faithful when enabled, and
that the cost ledger bills each recorded exchange.
"""

import random

from repro.dns.types import Rcode, RRType
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.resolver import RecursiveResolver
from repro.resolvers.naive import RandomSelector
from repro.telemetry import NullRegistry, NullTracer, Telemetry
from repro.telemetry.costs import CostLedger
from repro.telemetry.profiling import RunProfiler

from .test_resolver import ORIGIN, make_engine


def build_network(loss_rate=0.0, telemetry=None, seed=7):
    network = SimNetwork(
        latency=LatencyModel(
            LatencyParameters(loss_rate=loss_rate), rng=random.Random(seed)
        ),
        telemetry=telemetry,
    )
    engine = make_engine("FRA")
    network.register_host("10.0.0.1", DATACENTERS["FRA"], engine.handle_wire)
    return network


def build_resolver(network, **kwargs):
    resolver = RecursiveResolver(
        "10.9.0.1",
        PROBE_CITIES["AMS"],
        network,
        RandomSelector(rng=random.Random(1)),
        rng=random.Random(2),
        **kwargs,
    )
    resolver.add_stub_zone(ORIGIN, ["10.0.0.1"])
    return resolver


class TestAttemptCounting:
    def test_recording_is_off_without_telemetry(self):
        resolver = build_resolver(build_network())
        assert resolver.record_exchanges is False

    def test_clean_resolution_counts_one_attempt_no_records(self):
        resolver = build_resolver(build_network())
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert result.succeeded
        assert result.attempts == 1
        assert not result.exchanges

    def test_all_lost_counts_every_retry_no_records(self):
        resolver = build_resolver(build_network(loss_rate=1.0))
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        assert result.attempts == resolver.max_retries + 1
        assert not result.exchanges

    def test_attempts_equal_exchange_count_when_recording(self):
        for loss in (0.0, 0.5, 1.0):
            resolver = build_resolver(
                build_network(loss_rate=loss), record_exchanges=True
            )
            result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
            assert result.attempts == len(result.exchanges), f"loss={loss}"

    def test_attempts_identical_with_and_without_recording(self):
        outcomes = []
        for record in (False, True):
            resolver = build_resolver(
                build_network(loss_rate=0.5, seed=13),
                record_exchanges=record,
            )
            results = [
                resolver.resolve(f"q{i}.probe.ourtestdomain.nl.", RRType.TXT)
                for i in range(8)
            ]
            outcomes.append([r.attempts for r in results])
        assert outcomes[0] == outcomes[1]


class TestAutoGating:
    def test_telemetry_enables_recording(self):
        telemetry = Telemetry.enabled_bundle()
        network = build_network(telemetry=telemetry)
        resolver = build_resolver(network)
        assert resolver.record_exchanges is True
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert len(result.exchanges) == result.attempts == 1

    def test_explicit_false_overrides_telemetry(self):
        telemetry = Telemetry.enabled_bundle()
        network = build_network(telemetry=telemetry)
        resolver = build_resolver(network, record_exchanges=False)
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert not result.exchanges
        assert result.attempts == 1


def costs_telemetry():
    return Telemetry(
        NullRegistry(), NullTracer(), RunProfiler(), costs=CostLedger()
    )


class TestCostAccounting:
    def test_ledger_bills_each_recorded_exchange(self):
        telemetry = costs_telemetry()
        network = build_network(loss_rate=1.0, telemetry=telemetry)
        resolver = build_resolver(network)
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        counters = telemetry.costs.totals()
        assert counters["exchange_record"] == len(result.exchanges)
        assert counters["exchange_record"] == resolver.max_retries + 1

    def test_no_exchange_cost_when_recording_disabled(self):
        telemetry = costs_telemetry()
        network = build_network(telemetry=telemetry)
        resolver = build_resolver(network, record_exchanges=False)
        resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert "exchange_record" not in telemetry.costs.totals()
