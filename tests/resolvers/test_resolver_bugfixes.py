"""Regression tests for the retry/accounting bugs the event kernel exposed.

Four distinct bugs, each pinned here:

1. Retry span math: attempt N's exchange span must start after the N
   preceding timeout waits, not overlap attempt 0.
2. ``id_mismatch`` responses must be recorded (exchange appended,
   selector told) exactly like garbled ones — previously they silently
   vanished from both.
3. A referral whose glue is entirely unroutable must SERVFAIL, not
   fall through to NODATA and poison the negative cache.
4. A send treats an unroutable destination as a timeout and nothing
   else: ``transmit`` reports a lost exchange *synchronously*, so an
   error raised while booking that loss must propagate, not be mistaken
   for an unreachable host and booked a second time.
"""

import random

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.netsim.sched import EventKernel
from repro.resolvers.naive import RandomSelector
from repro.resolvers.resolver import RecursiveResolver
from repro.telemetry import Telemetry

from ..telemetry.test_tracing import spans_named

ORIGIN = Name.from_text("ourtestdomain.nl.")


def make_engine(site: str) -> AuthoritativeServer:
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.ourtestdomain.nl."),
            Name.from_text("h.ourtestdomain.nl."),
            1, 7200, 3600, 1209600, 60,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl.")))
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value(f"site-{site}"), ttl=5)
    return AuthoritativeServer(site, [zone])


class RecordingSelector(RandomSelector):
    """RandomSelector that logs every feedback call it receives."""

    def __init__(self, rng):
        super().__init__(rng=rng)
        self.timeouts: list[str] = []
        self.responses: list[str] = []

    def on_timeout(self, address, addresses, cache, now):
        self.timeouts.append(address)
        super().on_timeout(address, addresses, cache, now)

    def on_response(self, address, rtt_ms, addresses, cache, now):
        self.responses.append(address)
        super().on_response(address, rtt_ms, addresses, cache, now)


def make_resolver(network, selector=None, **kwargs):
    kwargs.setdefault("record_exchanges", True)
    resolver = RecursiveResolver(
        "10.9.0.1",
        PROBE_CITIES["AMS"],
        network,
        selector if selector is not None else RandomSelector(rng=random.Random(1)),
        rng=random.Random(2),
        **kwargs,
    )
    resolver.add_stub_zone(ORIGIN, ["10.0.0.1"])
    return resolver


class TestRetrySpanMath:
    """Bug 1: timeout waits must stack, attempt spans must not overlap."""

    def test_failed_attempts_offset_successive_spans(self):
        telemetry = Telemetry.enabled_bundle()
        dead = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=1.0), rng=random.Random(7)
            ),
            telemetry=telemetry,
        )
        engine = make_engine("FRA")
        dead.register_host("10.0.0.1", DATACENTERS["FRA"], engine.handle_wire)
        resolver = make_resolver(dead)
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL

        exchanges = spans_named(telemetry.tracer, "resolver.exchange")
        assert len(exchanges) == 4  # 1 try + 3 retries, all timeouts
        wait_s = resolver.timeout_ms / 1000.0
        starts = [span.start for span in exchanges]
        ends = [span.end for span in exchanges]
        assert starts == [i * wait_s for i in range(4)]
        assert ends == [(i + 1) * wait_s for i in range(4)]
        # The root span covers the whole serialized wait, not one timeout.
        (root,) = spans_named(telemetry.tracer, "resolver.resolve")
        assert root.end == pytest.approx(4 * wait_s)
        # ...and resolve() advanced the clock through all of it.
        assert dead.clock.now == pytest.approx(4 * wait_s)

    def test_success_after_failures_starts_at_offset(self):
        # loss_rate=0.5 with this rng: some attempts fail before one
        # succeeds; the winning span must start on a timeout boundary.
        telemetry = Telemetry.enabled_bundle()
        lossy = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=0.5), rng=random.Random(11)
            ),
            telemetry=telemetry,
        )
        engine = make_engine("FRA")
        lossy.register_host("10.0.0.1", DATACENTERS["FRA"], engine.handle_wire)
        resolver = make_resolver(lossy)
        wait_s = resolver.timeout_ms / 1000.0
        for i in range(10):
            telemetry.tracer.roots.clear()
            began = lossy.clock.now
            result = resolver.resolve(f"x{i}.probe.ourtestdomain.nl.", RRType.TXT)
            (root,) = spans_named(telemetry.tracer, "resolver.resolve")
            assert root.start == began
            spans = spans_named(telemetry.tracer, "resolver.exchange")
            # Offsets are relative to this resolution's start: the clock
            # has moved on by every earlier resolution's waits.
            for attempt, span in enumerate(spans):
                assert span.start - began == pytest.approx(attempt * wait_s)
                assert span.end > span.start
            assert lossy.clock.now == pytest.approx(root.end)
            ok = [s for s in spans if s.attributes.get("outcome") == "ok"]
            if result.succeeded:
                assert len(ok) == 1
                assert ok[0] is spans[-1]


class TestIdMismatchAccounting:
    """Bug 2: a wrong-id response is a failed attempt, fully recorded."""

    @pytest.fixture
    def spoofed_network(self):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0))
        )
        engine = make_engine("FRA")

        def flip_id(payload, client_address, now):
            response = engine.handle_wire(payload, client_address, now)
            # Corrupt the message id only — the rest stays well-formed.
            return bytes([response[0] ^ 0xFF]) + response[1:]

        network.register_host("10.0.0.1", DATACENTERS["FRA"], flip_id)
        return network

    def test_id_mismatch_records_exchange_and_informs_selector(
        self, spoofed_network
    ):
        selector = RecordingSelector(rng=random.Random(1))
        resolver = make_resolver(spoofed_network, selector=selector)
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        # Every attempt produced a lost-equivalent exchange record...
        assert len(result.exchanges) == resolver.max_retries + 1
        assert all(exchange.lost for exchange in result.exchanges)
        assert all(
            exchange.address == "10.0.0.1" for exchange in result.exchanges
        )
        # ...and the selector heard about each failure.
        assert selector.timeouts == ["10.0.0.1"] * (resolver.max_retries + 1)
        assert selector.responses == []

    def test_garbled_response_records_exchange(self):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0))
        )
        network.register_host(
            "10.0.0.1", DATACENTERS["FRA"], lambda *args: b"\x00\x01junk"
        )
        selector = RecordingSelector(rng=random.Random(1))
        resolver = make_resolver(network, selector=selector)
        result = resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        assert len(result.exchanges) == resolver.max_retries + 1
        assert selector.timeouts == ["10.0.0.1"] * (resolver.max_retries + 1)


def _delegating_parent(glue_address: str) -> AuthoritativeServer:
    """A 'nl.' parent delegating ourtestdomain.nl. with given glue."""
    parent = Zone("nl.")
    parent.add(
        "nl.",
        RRType.SOA,
        SOA(Name.from_text("ns1.nl."), Name.from_text("h.nl."), 1, 2, 3, 4, 60),
    )
    parent.add("nl.", RRType.NS, NS(Name.from_text("ns1.nl.")))
    parent.add(
        "ourtestdomain.nl.", RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl."))
    )
    parent.add("ns1.ourtestdomain.nl.", RRType.A, A(glue_address))
    return AuthoritativeServer("nl-ns", [parent])


class TestDeadReferral:
    """Bug 3: all-unroutable glue is SERVFAIL, never a cached NODATA."""

    @pytest.fixture
    def dead_referral_network(self):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0))
        )
        # Glue points at 10.0.0.99 — never registered, so unroutable.
        parent_engine = _delegating_parent("10.0.0.99")
        network.register_host(
            "10.1.0.1", DATACENTERS["DUB"], parent_engine.handle_wire
        )
        return network

    def _parent_resolver(self, network):
        resolver = RecursiveResolver(
            "10.9.0.1",
            PROBE_CITIES["AMS"],
            network,
            RandomSelector(rng=random.Random(9)),
            rng=random.Random(3),
        )
        resolver.add_stub_zone("nl.", ["10.1.0.1"])
        return resolver

    def test_dead_referral_is_servfail_not_nodata(self, dead_referral_network):
        resolver = self._parent_resolver(dead_referral_network)
        qname = Name.from_text("probe.ourtestdomain.nl.")
        result = resolver.resolve(qname, RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        assert not result.answers
        # The failure must NOT be negative-cached: the glue target could
        # come back (e.g. the host re-registers after an outage).
        assert (
            resolver.record_cache.get_negative(
                qname, RRType.TXT, dead_referral_network.clock.now
            )
            is None
        )

    def test_recovery_after_glue_target_appears(self, dead_referral_network):
        resolver = self._parent_resolver(dead_referral_network)
        qname = Name.from_text("probe.ourtestdomain.nl.")
        assert resolver.resolve(qname, RRType.TXT).rcode == Rcode.SERVFAIL
        # Same query again: still SERVFAIL (and still not poisoned)...
        assert resolver.resolve(qname, RRType.TXT).rcode == Rcode.SERVFAIL
        # ...until the delegated server shows up, then it resolves.
        child = make_engine("FRA")
        dead_referral_network.register_host(
            "10.0.0.99", DATACENTERS["FRA"], child.handle_wire
        )
        result = resolver.resolve(qname, RRType.TXT)
        assert result.succeeded
        assert result.txt_value() == "site-FRA"

    def test_dead_referral_via_event_kernel(self, dead_referral_network):
        # Same walk on a caller-owned kernel (how campaigns drive it).
        resolver = self._parent_resolver(dead_referral_network)
        kernel = EventKernel(clock=dead_referral_network.clock)
        qname = Name.from_text("probe.ourtestdomain.nl.")
        results = []
        resolver.resolve_event(qname, RRType.TXT, kernel, results.append)
        kernel.run()
        assert len(results) == 1
        assert results[0].rcode == Rcode.SERVFAIL
        assert (
            resolver.record_cache.get_negative(
                qname, RRType.TXT, dead_referral_network.clock.now
            )
            is None
        )

    def test_legit_nodata_still_negative_caches(self):
        # Control: a genuine NODATA (name exists, no AAAA) from a live
        # child must still go through the negative cache.
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0))
        )
        parent_engine = _delegating_parent("10.0.0.1")
        network.register_host(
            "10.1.0.1", DATACENTERS["DUB"], parent_engine.handle_wire
        )
        child = make_engine("FRA")
        network.register_host("10.0.0.1", DATACENTERS["FRA"], child.handle_wire)
        resolver = self._parent_resolver(network)
        qname = Name.from_text("probe.ourtestdomain.nl.")
        result = resolver.resolve(qname, RRType.AAAA)
        assert result.rcode == Rcode.NOERROR
        assert not result.answers
        assert (
            resolver.record_cache.get_negative(
                qname, RRType.AAAA, network.clock.now
            )
            is not None
        )


class TestKernelSyncEquivalence:
    """``resolve()`` is ``resolve_event`` drained on a private kernel:
    the blocking call and a caller-owned kernel give the same result
    and leave the clock at the same completion time."""

    def test_kernel_and_sync_agree_on_clean_resolution(self):
        def build():
            network = SimNetwork(
                latency=LatencyModel(LatencyParameters(loss_rate=0.0))
            )
            engine = make_engine("FRA")
            network.register_host(
                "10.0.0.1", DATACENTERS["FRA"], engine.handle_wire
            )
            return network, make_resolver(network)

        network_a, sync_resolver = build()
        sync = sync_resolver.resolve("probe.ourtestdomain.nl.", RRType.TXT)

        network_b, event_resolver = build()
        kernel = EventKernel(clock=network_b.clock)
        results = []
        event_resolver.resolve_event(
            Name.from_text("probe.ourtestdomain.nl."), RRType.TXT,
            kernel, results.append,
        )
        kernel.run()
        (evented,) = results
        assert evented == sync
        assert sync.succeeded
        assert sync.txt_value() == "site-FRA"
        assert sync.served_by == "FRA"
        assert sync.attempts == len(sync.exchanges) == 1
        # Both clocks advanced to the delivery time, and nowhere else.
        assert network_a.clock.now == sync.rtt_ms / 1000.0
        assert network_b.clock.now == sync.rtt_ms / 1000.0
        assert kernel.processed == 1

    def test_kernel_retries_fire_at_timeout_offsets(self):
        telemetry = Telemetry.enabled_bundle()
        dead = SimNetwork(
            latency=LatencyModel(
                LatencyParameters(loss_rate=1.0), rng=random.Random(7)
            ),
            telemetry=telemetry,
        )
        engine = make_engine("FRA")
        dead.register_host("10.0.0.1", DATACENTERS["FRA"], engine.handle_wire)
        resolver = make_resolver(dead)
        kernel = EventKernel(clock=dead.clock)
        results = []
        resolver.resolve_event(
            Name.from_text("probe.ourtestdomain.nl."), RRType.TXT,
            kernel, results.append,
        )
        kernel.run()
        assert results[0].rcode == Rcode.SERVFAIL
        wait_s = resolver.timeout_ms / 1000.0
        spans = spans_named(telemetry.tracer, "resolver.exchange")
        assert [span.start for span in spans] == [i * wait_s for i in range(4)]
        # Virtual time really elapsed: retries were timer events.
        assert dead.clock.now == pytest.approx(4 * wait_s)


class TestSendCatchesOnlyDeliveryErrors:
    """Bug 4: ``_send`` wrapped ``transmit`` in ``except Exception``."""

    def test_withdrawn_host_reads_as_one_timeout_per_attempt(self):
        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=0.0), seed=7)
        )
        selector = RecordingSelector(random.Random(1))
        resolver = make_resolver(network, selector)  # 10.0.0.1: no such host
        kernel = EventKernel(clock=network.clock)
        results = []
        resolver.resolve_event(
            Name.from_text("probe.ourtestdomain.nl."), RRType.TXT,
            kernel, results.append,
        )
        kernel.run()
        (result,) = results
        sends = resolver.max_retries + 1
        assert result.rcode == Rcode.SERVFAIL
        assert result.attempts == sends
        assert [(e.address, e.lost) for e in result.exchanges] == (
            [("10.0.0.1", True)] * sends
        )
        assert selector.timeouts == ["10.0.0.1"] * sends
        # One timer per attempt, each a full timeout window long.
        assert kernel.processed == sends
        assert network.clock.now == pytest.approx(sends * resolver.timeout_ms / 1000.0)

    def test_error_from_the_synchronous_loss_callback_propagates(self):
        class TimerFault(RuntimeError):
            pass

        class FaultyKernel(EventKernel):
            """Books every timer, then fails the first booking."""

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.booked = []

            def call_at(self, time, fn, *arg):
                entry = super().call_at(time, fn, *arg)
                self.booked.append(fn.__name__)
                if len(self.booked) == 1:
                    raise TimerFault("heap full")
                return entry

        network = SimNetwork(
            latency=LatencyModel(LatencyParameters(loss_rate=1.0), seed=7)
        )
        network.register_host(
            "10.0.0.1", DATACENTERS["FRA"], make_engine("FRA").handle_wire
        )
        resolver = make_resolver(network)
        kernel = FaultyKernel(clock=network.clock)
        with pytest.raises(TimerFault):
            resolver.resolve_event(
                Name.from_text("probe.ourtestdomain.nl."), RRType.TXT,
                kernel, lambda result: None,
            )
        # The lost attempt's timeout was booked once, not re-booked as
        # "unreachable" by a handler that swallowed the error.
        assert kernel.booked == ["_timeout_fired"]
