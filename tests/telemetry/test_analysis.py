"""Tests for trace analytics: critical paths, attribution, forensics."""

import pytest

from repro.telemetry import (
    Note,
    TraceAnalytics,
    TraceEvent,
    Tracer,
    critical_path,
    fault_windows_from_notes,
    render_forensics,
)
from repro.telemetry.analysis import (
    describe_critical_path,
    probe_of_qname,
)


def make_trace(
    tracer,
    start=0.0,
    qname="m-0-0.probe.ourtestdomain.nl.",
    attempts=(("10.0.0.53", "ok", 40.0),),
    resolver="10.53.0.1",
    rcode="NOERROR",
):
    """One synthetic resolution with the production span shape."""
    root = tracer.start_span(
        "resolver.resolve", at=start,
        resolver=resolver, qname=qname, qtype="TXT", rcode=rcode,
    )
    at = start
    for index, (ns, outcome, ms) in enumerate(attempts):
        exchange = tracer.start_span(
            "resolver.exchange", at=at, ns=ns, attempt=index + 1,
            outcome=outcome,
        )
        trip = tracer.start_span("net.round_trip", at=at, dst=ns)
        if outcome == "ok":
            exchange.set(rtt_ms=ms)
            query = tracer.start_span("auth.query", at=at, server=ns)
            tracer.finish_span(query, at=at)
        tracer.finish_span(trip, at=at + (ms / 1000.0 if outcome == "ok" else 0.0))
        tracer.finish_span(exchange, at=at + ms / 1000.0)
        at += ms / 1000.0
    tracer.finish_span(root, at=at)
    return root


class TestCriticalPath:
    def test_follows_the_chain_that_ends_the_root(self):
        # Exchanges run in series: the critical path is the chain whose
        # end the root's end actually waited on — the *last* attempt.
        tracer = Tracer()
        root = make_trace(
            tracer,
            attempts=[("10.0.0.53", "timeout", 800.0), ("10.0.1.53", "ok", 50.0)],
        )
        path = critical_path(root)
        assert [span.name for span in path] == [
            "resolver.resolve", "resolver.exchange", "net.round_trip",
            "auth.query",
        ]
        assert path[1].attributes["outcome"] == "ok"
        assert path[1].end == root.end

    def test_unfinished_children_are_skipped(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=0.0)
        child = tracer.start_span("resolver.exchange", at=0.0, ns="a")
        # never finished: the path must stop at the root
        tracer.finish_span(root, at=1.0)
        assert child.end is None
        assert critical_path(root) == [root]

    def test_describe_marks_open_spans(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=0.0)
        tracer.finish_span(root, at=0.0)
        root.end = None  # an unfinished root: duration must render "open"
        assert "open" in describe_critical_path(root)


class TestProbeOfQname:
    def test_roundtrip_with_platform_convention(self):
        from repro.atlas.platform import VPS_PER_PROBE

        vp_id = 4 * VPS_PER_PROBE + 1  # probe 4's second vantage point
        assert probe_of_qname(f"m-{vp_id}-17.probe.example.nl.") == 4

    def test_non_measurement_names(self):
        assert probe_of_qname("www.example.com.") is None
        assert probe_of_qname("") is None


class TestFaultWindows:
    def test_pairs_start_and_end(self):
        notes = [
            Note(name="fault.start", at=400.0,
                 data={"fault": "ns_outage", "address": "10.0.0.53",
                       "target": "ns1"}),
            Note(name="fault.end", at=800.0,
                 data={"fault": "ns_outage", "address": "10.0.0.53",
                       "target": "ns1"}),
        ]
        (window,) = fault_windows_from_notes(notes)
        assert (window.start, window.end) == (400.0, 800.0)
        assert window.label == "ns_outage@ns1"

    def test_unpaired_start_stays_open(self):
        notes = [
            Note(name="fault.start", at=100.0,
                 data={"fault": "loss", "address": "", "target": "ns2"}),
        ]
        (window,) = fault_windows_from_notes(notes)
        assert window.start == 100.0
        assert window.end == float("inf")


class TestAttribution:
    def _analytics(self):
        tracer = Tracer()
        make_trace(tracer, start=0.0, attempts=[("10.0.0.53", "ok", 40.0)])
        make_trace(
            tracer, start=450.0,
            qname="m-2-3.probe.ourtestdomain.nl.",
            attempts=[("10.0.0.53", "timeout", 800.0), ("10.0.1.53", "ok", 300.0)],
            resolver="10.53.0.2",
        )
        notes = [
            Note(name="fault.start", at=400.0,
                 data={"fault": "ns_outage", "address": "10.0.0.53",
                       "target": "ns1"}),
            Note(name="fault.end", at=800.0,
                 data={"fault": "ns_outage", "address": "10.0.0.53",
                       "target": "ns1"}),
        ]
        return TraceAnalytics(
            tracer.traces(), fault_windows_from_notes(notes)
        )

    def test_per_ns_counts_waste(self):
        by_ns = {a.address: a for a in self._analytics().per_ns()}
        ns1 = by_ns["10.0.0.53"]
        assert ns1.exchanges == 2 and ns1.ok == 1 and ns1.failed == 1
        assert ns1.wasted_ms == pytest.approx(800.0)
        assert by_ns["10.0.1.53"].failed == 0

    def test_per_resolver_orders_by_busy(self):
        resolvers = self._analytics().per_resolver()
        assert resolvers[0].address == "10.53.0.2"  # burned the timeout
        assert resolvers[0].worst_ms == pytest.approx(1100.0)

    def test_per_fault_window_matches_address_and_interval(self):
        (attribution,) = self._analytics().per_fault_window()
        # only the in-window exchange against the faulted address counts
        assert attribution.exchanges == 1
        assert attribution.failed == 1
        assert attribution.busy_ms == pytest.approx(800.0)

    def test_slowest_is_deterministic_on_ties(self):
        tracer = Tracer()
        for start in (30.0, 10.0, 20.0):  # same duration, distinct starts
            make_trace(tracer, start=start, attempts=[("10.0.0.53", "ok", 40.0)])
        analytics = TraceAnalytics(tracer.traces())
        assert [r.start for r in analytics.slowest(3)] == [10.0, 20.0, 30.0]

    def test_find_selectors(self):
        analytics = self._analytics()
        assert len(analytics.find("probe-1")) == 1  # vp 2 -> probe 1
        assert analytics.find("probe-99") == []
        # trace-<n>: the n-th trace handed in (the n-th record of a log).
        for n, root in enumerate(analytics.roots, 1):
            assert analytics.find(f"trace-{n}") == [root]
            assert analytics.ordinal(root) == n
        assert analytics.find("trace-0") == analytics.find("trace-99") == []
        assert analytics.find("trace-zzz") == []
        assert len(analytics.find("m-2-3")) == 1


class TestRenderForensics:
    def test_full_report_sections(self):
        analytics = TestAttribution()._analytics()
        text = render_forensics(analytics, top=2)
        assert "Per-NS latency attribution" in text
        assert "Busiest resolvers" in text
        assert "ground-truth fault windows" in text
        assert "critical path:" in text

    def test_selector_mode(self):
        analytics = TestAttribution()._analytics()
        text = render_forensics(analytics, selector="probe-1")
        assert "match 'probe-1'" in text
        assert "resolver.resolve" in text

    def test_unfinished_spans_do_not_crash(self):
        tracer = Tracer()
        root = tracer.start_span(
            "resolver.resolve", at=0.0,
            qname="m-0-0.probe.example.nl.", resolver="10.53.0.1",
        )
        tracer.start_span("resolver.exchange", at=0.0, ns="10.0.0.53")
        tracer.finish_span(root, at=0.5)
        analytics = TraceAnalytics([root])
        text = render_forensics(analytics)
        assert "Forensics" in text
        # an unfinished root never ranks among the slowest exemplars
        assert analytics.slowest(5) == [] or analytics.slowest(5)[0].end is not None


class TestFromEvents:
    def test_analytics_from_event_stream(self, tmp_path):
        from repro.telemetry import EventLogWriter

        tracer = Tracer()
        make_trace(tracer, start=0.0)
        path = tmp_path / "log.jsonl"
        with EventLogWriter(path) as writer:
            writer.emit(Note(name="fault.start", at=1.0,
                             data={"fault": "x", "address": "a",
                                   "target": "ns1"}))
            for root in tracer.traces():
                event = TraceEvent(root=root)
                writer.emit(event)
        analytics = TraceAnalytics.from_log(str(path))
        assert len(analytics.roots) == 1
        assert len(analytics.fault_windows) == 1
