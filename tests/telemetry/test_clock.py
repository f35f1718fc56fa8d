"""Injectable clock: protocol, implementations, transport integration."""

import pytest

from repro.dns.listener import Listener, query_tcp, query_udp
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.telemetry import Telemetry
from repro.telemetry.clock import DEFAULT_CLOCK, Clock, MonotonicClock

ORIGIN = Name.from_text("ourtestdomain.nl.")


class ManualClock:
    """A clock a test drives by hand."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds
        return self._now

    def set(self, timestamp: float) -> float:
        self._now = float(timestamp)
        return self._now


@pytest.fixture
def engine():
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.ourtestdomain.nl."),
            Name.from_text("hostmaster.ourtestdomain.nl."),
            1, 7200, 3600, 1209600, 5,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl.")))
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value("site-GRU"), ttl=5)
    return AuthoritativeServer("gru", [zone], telemetry=Telemetry.enabled_bundle())


def stamps(engine: AuthoritativeServer) -> list[float]:
    """When each query's ``auth.query`` span says it arrived."""
    return [root.start for root in engine.telemetry.tracer.traces()]


class TestClockImplementations:
    def test_manual_clock_advances_deterministically(self):
        clock = ManualClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5
        clock.set(100.0)
        assert clock.now() == 100.0

    def test_manual_clock_rejects_negative_advance(self):
        clock = ManualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        assert clock.now() == 5.0

    def test_monotonic_clock_starts_near_zero_and_only_grows(self):
        clock = MonotonicClock()
        first = clock.now()
        second = clock.now()
        assert 0.0 <= first <= second

    def test_implementations_satisfy_protocol(self):
        assert isinstance(ManualClock(), Clock)
        assert isinstance(MonotonicClock(), Clock)
        assert isinstance(DEFAULT_CLOCK, Clock)


class TestTransportClockInjection:
    def test_udp_stamps_query_spans_from_injected_clock(self, engine):
        clock = ManualClock(start=1000.0)
        with Listener(engine, clock=clock) as server:
            query_udp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
            clock.advance(60.0)
            query_udp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
        assert stamps(engine) == [1000.0, 1060.0]

    def test_tcp_stamps_query_spans_from_injected_clock(self, engine):
        clock = ManualClock(start=500.0)
        with Listener(engine, clock=clock) as server:
            query_tcp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
        assert stamps(engine) == [500.0]

    def test_udp_and_tcp_share_default_monotonic_clock(self, engine):
        clock = ManualClock(start=7.0)
        with Listener(engine, clock=clock) as server:
            query_udp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
            query_tcp(server.address, "probe.ourtestdomain.nl.", RRType.TXT)
        assert stamps(engine) == [7.0, 7.0]
        listener = Listener(engine)
        listener.close()  # never started; the sockets are released
        assert listener.clock is DEFAULT_CLOCK

    def test_default_stamps_are_monotonic_not_wall_clock(self, engine):
        # time.time() is ~1.7e9; the monotonic default starts near zero,
        # so stamps must be tiny and non-decreasing.
        with Listener(engine) as server:
            for index in range(3):
                query_udp(
                    server.address, "probe.ourtestdomain.nl.", RRType.TXT,
                    msg_id=index + 1,
                )
        seen = stamps(engine)
        assert len(seen) == 3 and seen == sorted(seen)
        assert all(stamp < 1e6 for stamp in seen)
