"""Bounded query log: ring-buffer semantics, stats, and dropped metric."""

import pytest

import repro.dns.server as server_module
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import (
    DEFAULT_QUERY_LOG_MAX,
    AuthoritativeServer,
    BoundedQueryLog,
    QueryLogEntry,
    ServerStats,
)
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.telemetry import Telemetry

ORIGIN = Name.from_text("ourtestdomain.nl.")


def entry(index: int) -> QueryLogEntry:
    return QueryLogEntry(
        timestamp=float(index),
        client=f"203.0.113.{index}",
        qname=Name.from_text(f"q{index}.ourtestdomain.nl."),
        qtype=RRType.TXT,
        rcode=Rcode.NOERROR,
    )


def make_server(**kwargs) -> AuthoritativeServer:
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
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value("site-FRA"), ttl=5)
    return AuthoritativeServer("fra", [zone], **kwargs)


class TestBoundedQueryLog:
    def test_behaves_like_a_list_for_readers(self):
        log = BoundedQueryLog(maxlen=10)
        first, second = entry(0), entry(1)
        log.append(first)
        log.append(second)
        assert len(log) == 2
        assert bool(log)
        # Entries are materialised from columns on read: equal, not identical.
        assert log[0] == first
        assert log[-1] == second
        assert log[0:2] == [first, second]
        assert list(log) == [first, second]
        assert log == [first, second]

    def test_empty_log_equals_empty_list(self):
        assert BoundedQueryLog() == []
        assert not BoundedQueryLog()

    def test_evicts_oldest_and_counts_drops(self):
        log = BoundedQueryLog(maxlen=3)
        entries = [entry(i) for i in range(5)]
        results = [log.append(e) for e in entries]
        assert results == [False, False, False, True, True]
        assert log.dropped == 2
        assert list(log) == entries[2:]  # oldest two evicted

    def test_wraps_around_many_times_in_order(self, monkeypatch, caplog):
        # A small chunk makes the ring shed whole chunks several times.
        monkeypatch.setattr(server_module, "_LOG_CHUNK", 4)
        log = BoundedQueryLog(maxlen=6)
        entries = [entry(i) for i in range(40)]
        with caplog.at_level("WARNING", logger="repro.dns.server"):
            for count, item in enumerate(entries, start=1):
                assert log.append(item) is (count > 6)
                assert list(log) == entries[max(0, count - 6):count]
        assert log.dropped == 34
        assert len(log._chunks) <= 3  # live entries + at most one stale chunk
        warnings = [r for r in caplog.records if "query log full" in r.message]
        assert len(warnings) == 1  # first eviction only

    def test_index_slice_and_equality_across_chunks(self, monkeypatch):
        monkeypatch.setattr(server_module, "_LOG_CHUNK", 4)
        log = BoundedQueryLog(maxlen=10)
        entries = [entry(i) for i in range(15)]
        for item in entries:
            log.append(item)
        kept = entries[5:]
        assert [log[i] for i in range(10)] == kept
        assert [log[i] for i in range(-10, 0)] == kept
        assert log[2:9:3] == kept[2:9:3]
        assert log[-3:] == kept[-3:]
        assert log == kept and log == tuple(kept)
        assert log != kept[1:]
        other = BoundedQueryLog(maxlen=None)
        for item in kept:
            other.append(item)
        assert log == other
        for bad in (10, -11):
            with pytest.raises(IndexError):
                log[bad]

    def test_qname_case_survives_the_columns(self):
        log = BoundedQueryLog()
        mixed = Name.from_text("pRoBe-7.OurTestDomain.NL.")
        log.append(QueryLogEntry(1.5, "vp", mixed, RRType.TXT, Rcode.NXDOMAIN))
        (stored,) = log
        assert stored.qname.labels == mixed.labels  # Name == folds case
        assert stored.qname.to_text() == "pRoBe-7.OurTestDomain.NL."
        assert (stored.qtype, stored.rcode) == (RRType.TXT, Rcode.NXDOMAIN)
        assert isinstance(stored.qtype, RRType) and isinstance(stored.rcode, Rcode)

    def test_unbounded_never_drops(self):
        log = BoundedQueryLog(maxlen=None)
        for i in range(100):
            assert log.append(entry(i)) is False
        assert log.dropped == 0
        assert len(log) == 100

    def test_clear_resets_drop_counter(self):
        log = BoundedQueryLog(maxlen=1)
        log.append(entry(0))
        log.append(entry(1))
        log.clear()
        assert log.dropped == 0
        assert log == []

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedQueryLog(maxlen=0)
        with pytest.raises(ValueError):
            BoundedQueryLog(maxlen=-5)

    def test_default_capacity(self):
        assert BoundedQueryLog().maxlen == DEFAULT_QUERY_LOG_MAX


class TestQueryLogEntry:
    def test_is_immutable_value_object(self):
        first = entry(1)
        assert first == entry(1)
        assert first != entry(2)
        with pytest.raises(AttributeError):
            first.client = "other"

    def test_fields(self):
        record = entry(7)
        assert record.timestamp == 7.0
        assert record.client == "203.0.113.7"
        assert record.qname == Name.from_text("q7.ourtestdomain.nl.")
        assert record.qtype == RRType.TXT
        assert record.rcode == Rcode.NOERROR


class TestServerStats:
    def test_defaults_to_zero(self):
        stats = ServerStats()
        assert (
            stats.queries, stats.responses, stats.nxdomain, stats.refused,
            stats.formerr, stats.notimp, stats.chaos,
        ) == (0, 0, 0, 0, 0, 0, 0)

    def test_counts_track_query_mix(self):
        server = make_server()
        server.handle_query(Message.make_query("probe.ourtestdomain.nl.", RRType.TXT))
        server.handle_query(Message.make_query("gone.ourtestdomain.nl.", RRType.A))
        server.handle_query(Message.make_query("other.org.", RRType.A))
        stats = server.stats
        assert stats.queries == 3
        assert stats.responses == 3
        assert stats.nxdomain == 1
        assert stats.refused == 1


class TestServerRingBuffer:
    def test_server_honors_query_log_cap(self):
        server = make_server(query_log_max=2)
        for index in range(5):
            server.handle_query(
                Message.make_query("probe.ourtestdomain.nl.", RRType.TXT),
                client=f"vp{index}",
                now=float(index),
            )
        assert len(server.query_log) == 2
        assert server.query_log.dropped == 3
        assert [e.client for e in server.query_log] == ["vp3", "vp4"]

    def test_dropped_entries_surface_in_metrics(self):
        telemetry = Telemetry.enabled_bundle(tracing=False, profiling=False)
        server = make_server(query_log_max=1, telemetry=telemetry)
        for _ in range(4):
            server.handle_query(
                Message.make_query("probe.ourtestdomain.nl.", RRType.TXT)
            )
        registry = telemetry.registry
        dropped = registry.get("authoritative_query_log_dropped_total")
        assert dropped.labels(server="fra").value == 3
        assert registry.get("authoritative_queries_total").labels(
            server="fra"
        ).value == 4

    def test_no_dropped_metric_until_eviction(self):
        telemetry = Telemetry.enabled_bundle(tracing=False, profiling=False)
        server = make_server(telemetry=telemetry)
        server.handle_query(Message.make_query("probe.ourtestdomain.nl.", RRType.TXT))
        assert "authoritative_query_log_dropped_total" not in telemetry.registry
