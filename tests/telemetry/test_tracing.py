"""Span/trace semantics: nesting, virtual-time ordering, retention."""

from repro.telemetry import (
    NULL_SPAN,
    NullTracer,
    Tracer,
    encode_trace,
    render_trace,
)


def spans_named(tracer, name: str) -> list:
    """Every retained span called ``name``, trace by trace."""
    return [span for root in tracer.traces() for span in root.trace if span.name == name]


class TestSpanNesting:
    def test_child_nests_under_active_span(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=0.0)
        child = tracer.start_span("resolver.exchange", at=0.010)
        assert child.parent is root
        assert child.trace is root.trace
        assert root.trace == [root, child]
        tracer.finish_span(child, at=0.050)
        tracer.finish_span(root, at=0.060)
        assert tracer.traces() == [root]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        root = tracer.start_span("resolve", at=0.0)
        for at in (0.0, 0.4):
            tracer.finish_span(tracer.start_span("attempt", at=at), at=at)
        tracer.finish_span(root, at=0.4)
        children = root.trace[1:]
        assert [child.name for child in children] == ["attempt", "attempt"]
        assert all(child.parent is root for child in children)

    def test_separate_roots_get_separate_trace_ids(self):
        tracer = Tracer()
        for name, at in (("a", 0.0), ("b", 1.0)):
            tracer.finish_span(tracer.start_span(name, at=at), at=at)
        # A trace's identity is the flat list its root owns: no counter.
        first, second = tracer.traces()
        assert first.trace is not second.trace
        assert first.trace == [first] and second.trace == [second]

    def test_virtual_time_ordering(self):
        """Span times come from the caller's (virtual) clock, in order."""
        tracer = Tracer()
        root = tracer.start_span("resolve", at=100.0)
        exchange = tracer.start_span("exchange", at=100.0)
        trip = tracer.start_span("round_trip", at=100.0)
        trip.event("rtt_draw", at=100.0, rtt_ms=82.0)
        tracer.finish_span(trip, at=100.082)
        tracer.finish_span(exchange, at=100.082)
        tracer.finish_span(root, at=100.082)
        spans = root.trace
        assert [span.name for span in spans] == ["resolve", "exchange", "round_trip"]
        for parent, child in zip(spans, spans[1:]):
            assert child.start >= parent.start
            assert child.end <= parent.end
        assert abs(trip.duration_s - 0.082) < 1e-9

    def test_trace_is_flat_in_start_order_and_find_matches(self):
        tracer = Tracer()
        root = tracer.start_span("root", at=0.0)
        left = tracer.start_span("left", at=0.0)
        tracer.finish_span(tracer.start_span("leaf", at=0.0), at=0.0)
        tracer.finish_span(left, at=0.0)
        right = tracer.start_span("right", at=1.0)
        # Event-driven code parents explicitly, in any order: start
        # order, not tree order, is what the list keeps.
        late = tracer.start_span("late-leaf", at=1.0, parent=left)
        tracer.finish_span(late, at=1.0)
        tracer.finish_span(right, at=1.0)
        tracer.finish_span(root, at=1.0)
        assert [span.name for span in root.trace] == [
            "root", "left", "leaf", "right", "late-leaf",
        ]
        assert late.parent is left and late.trace is root.trace
        assert root.find("leaf").name == "leaf"
        assert root.find("missing") is None


class TestSpanData:
    def test_set_and_event_are_chainable(self):
        tracer = Tracer()
        span = tracer.start_span("s", at=0.0)
        span.set(site="FRA").event("loss", at=0.5, reason="drop")
        assert span.attributes["site"] == "FRA"
        assert span.events[0].name == "loss"
        assert span.events[0].time == 0.5
        assert span.events[0].attributes == {"reason": "drop"}

    def test_encode_trace_lays_the_trace_out_flat(self):
        tracer = Tracer()
        root = tracer.start_span("root", at=0.0)
        root.set(qname="probe.example.nl.")
        tracer.finish_span(tracer.start_span("child", at=0.1), at=0.1)
        tracer.finish_span(root, at=0.0)
        assert encode_trace(root) == [
            [-1, "root", 0.0, 0.0, {"qname": "probe.example.nl."}, []],
            [0, "child", 0.1, 0.1, {}, []],
        ]


class TestRetention:
    def test_max_traces_drops_whole_traces(self):
        tracer = Tracer(max_traces=2)
        for index in range(5):
            tracer.finish_span(tracer.start_span("t", at=index), at=index)
        assert len(tracer.traces()) == 2
        assert tracer.dropped_traces == 3


class TestRender:
    def test_render_trace_shows_tree_and_offsets(self):
        tracer = Tracer()
        root = tracer.start_span("resolver.resolve", at=10.0, qname="q.nl.")
        child = tracer.start_span("net.round_trip", at=10.0)
        child.event("rtt_draw", at=10.0, rtt_ms=50.0)
        tracer.finish_span(child, at=10.05)
        tracer.finish_span(root, at=10.05)
        text = render_trace(root)
        assert "resolver.resolve [+0.0ms 50.0ms] qname=q.nl." in text
        assert "└─ net.round_trip [+0.0ms 50.0ms]" in text
        assert "· rtt_draw [+0.0ms] rtt_ms=50.0" in text


class TestNullTracer:
    def test_null_tracer_absorbs_everything(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span = tracer.start_span("s", at=0.0)
        assert span is NULL_SPAN
        span.set(a=1).event("e", at=0.0)
        tracer.finish_span(span, at=1.0)
        assert tracer.roots == []

    def test_null_span_reads_as_empty(self):
        assert NULL_SPAN.trace == []
        assert NULL_SPAN.finished is False
