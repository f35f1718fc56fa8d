"""Response-template cache: byte-identity with the slow path.

A server's zones are frozen, so nothing it caches from one answer can go
stale; these tests hold the fast path to the slow path's bytes and
bookkeeping, query by query.  The server-side capture of a query is its
``auth.query`` span, so the servers compared run traced.
"""

from repro.dns import AuthoritativeServer, Message, Name, Zone
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.types import RRType
from repro.telemetry import Telemetry, encode_trace


def build_zone() -> Zone:
    zone = Zone("example.org.")
    zone.add(
        "example.org.",
        RRType.SOA,
        SOA(
            Name.from_text("ns1.example.org."),
            Name.from_text("admin.example.org."),
            1, 3600, 900, 86400, 300,
        ),
    )
    zone.add("example.org.", RRType.NS, NS(Name.from_text("ns1.example.org.")))
    zone.add("ns1.example.org.", RRType.A, A("192.0.2.53"))
    zone.add("*.probe.example.org.", RRType.TXT, TXT.from_value("m-site"), ttl=5)
    zone.add("www.example.org.", RRType.A, A("192.0.2.1"))
    return zone


def slow_server(zones: list[Zone], **options) -> AuthoritativeServer:
    """A server with the template fast path disabled (reference output):
    no question is parsed, so no template or alias is ever stored."""
    server = AuthoritativeServer("site-a", zones, **options)
    server._parse_fast_query = lambda wire: None  # type: ignore[method-assign]
    return server


def traced_pair(zones: list[Zone]):
    """A fast and a slow server, each with its own tracer."""
    return (
        AuthoritativeServer("site-a", zones, telemetry=Telemetry.enabled_bundle()),
        slow_server(zones, telemetry=Telemetry.enabled_bundle()),
    )


def captured(server: AuthoritativeServer) -> list[tuple]:
    """What a capture at ``server`` recorded, query by query: server,
    client, qname as spelled on the wire, rcode and time."""
    return [
        (
            span.attributes["server"], span.attributes["client"],
            span.attributes["qname"], span.attributes["rcode"], span.start,
        )
        for root in server.telemetry.tracer.traces()
        for span in root.trace
        if span.name == "auth.query"
    ]


def queries():
    for tick in range(30):
        yield Message.make_query(
            f"m-1-{tick}.probe.example.org.", RRType.TXT, msg_id=100 + tick
        )
    # EDNS, NSID, case variants, A-type misses under the wildcard
    q = Message.make_query("m-2-0.PROBE.Example.ORG.", RRType.TXT, msg_id=900)
    yield q
    q = Message.make_query("m-2-1.probe.example.org.", RRType.TXT, msg_id=901)
    q.use_edns(1232)
    yield q
    q = Message.make_query("m-2-2.probe.example.org.", RRType.TXT, msg_id=902)
    q.use_edns(4096)
    q.request_nsid()
    yield q
    yield Message.make_query("m-2-3.probe.example.org.", RRType.A, msg_id=903)
    yield Message.make_query("what.example.org.", RRType.A, msg_id=904)
    yield Message.make_query("www.example.org.", RRType.A, msg_id=905)


def test_fast_path_is_byte_identical_to_slow_path():
    zone = build_zone()
    fast, slow = traced_pair([zone])
    for query in queries():
        wire = query.to_wire()
        assert fast.handle_wire(wire) == slow.handle_wire(wire)
    assert fast._templates  # the hot wildcard lookups did get cached
    # Identical bookkeeping on both paths.
    assert fast.stats == slow.stats
    assert captured(fast) == captured(slow)


def test_fast_path_logs_what_the_slow_path_logs_case_included():
    """The template path spans the spliced qname wire, the slow path a
    decoded question: same spans, same DNS-0x20 spelling, for the same
    wires."""
    zone = build_zone()
    ledger = Telemetry.enabled_bundle(costs=True)
    fast = AuthoritativeServer("site-a", [zone], telemetry=ledger)
    slow = slow_server([zone], telemetry=Telemetry.enabled_bundle())
    names = [
        "m-3-0.probe.example.org.",
        "M-3-1.pRoBe.eXaMpLe.OrG.",
        "m-3-2.pRoBe.eXaMpLe.OrG.",
        "m-3-3.probe.example.org.",
    ] * 2
    for tick, name in enumerate(names):
        wire = Message.make_query(name, RRType.TXT, msg_id=tick).to_wire()
        for server in (fast, slow):
            server.handle_wire(wire, client=f"10.0.0.{tick % 3}", now=tick * 0.5)
    assert ledger.costs.totals()["template_hit"] >= 6
    assert captured(fast) == captured(slow) == [
        ("site-a", f"10.0.0.{tick % 3}", name, "NOERROR", tick * 0.5)
        for tick, name in enumerate(names)
    ]


def test_template_survives_repeats_and_counts_queries():
    server = AuthoritativeServer("site-a", [build_zone()])
    wire = Message.make_query(
        "m-9-9.probe.example.org.", RRType.TXT, msg_id=77
    ).to_wire()
    first = server.handle_wire(wire)
    second = server.handle_wire(wire)
    assert first == second
    assert server.stats.queries == 2
    assert server.stats.responses == 2


def test_exact_names_never_served_from_template():
    zone = build_zone()
    # An exact name under the wildcard's suffix...
    zone.add("m-1-2.probe.example.org.", RRType.TXT, TXT.from_value("special"), ttl=5)
    server = AuthoritativeServer("site-a", [zone])
    # ...does not take the (probe.example.org, TXT) template once it is
    # warm: it gets its own answer.
    server.handle_wire(
        Message.make_query("m-1-1.probe.example.org.", RRType.TXT, msg_id=1).to_wire()
    )
    assert server._templates
    response = Message.from_wire(
        server.handle_wire(
            Message.make_query(
                "m-1-2.probe.example.org.", RRType.TXT, msg_id=2
            ).to_wire()
        )
    )
    assert response.answers[0].rdata.to_text() == '"special"'


def test_rate_limited_servers_skip_the_fast_path():
    from repro.dns.rrl import ResponseRateLimiter

    limited = AuthoritativeServer(
        "site-a", [build_zone()], rate_limiter=ResponseRateLimiter()
    )
    wire = Message.make_query(
        "m-6-6.probe.example.org.", RRType.TXT, msg_id=9
    ).to_wire()
    limited.handle_wire(wire)
    limited.handle_wire(wire)
    assert not limited._templates


def test_traced_fast_path_books_what_the_traced_slow_path_books():
    """Telemetry observes the fast path; it does not switch it off.

    The same stream against a traced server and a traced server forced
    onto the slow path: same bytes, same spans, same counters, same
    stats.
    """
    zone = build_zone()
    zone.add(
        "*.big.example.org.", RRType.TXT, TXT.from_value("x" * 200), ttl=5
    )
    for index in range(3):
        zone.add(
            "*.big.example.org.", RRType.TXT,
            TXT.from_value(str(index) * 200), ttl=5,
        )

    fast, slow = traced_pair([zone])

    stream = list(queries())  # hits, a miss per key, an existing name, NSID
    for tick, payload in enumerate((4096, 4096, 600)):
        # Templated at 4096; at 600 the template would truncate.
        q = Message.make_query(f"m-7-{tick}.big.example.org.", RRType.TXT,
                               msg_id=950 + tick)
        q.use_edns(payload)
        stream.append(q)
    for tick, query in enumerate(stream):
        wire = query.to_wire()
        client, now = f"10.0.0.{tick % 3}", tick * 0.5
        assert fast.handle_wire(wire, client, now) == slow.handle_wire(
            wire, client, now
        )
    assert fast._templates and not slow._templates
    assert Message.from_wire(fast.handle_wire(stream[-1].to_wire())).truncated
    slow.handle_wire(stream[-1].to_wire())

    fast_spans = [encode_trace(root) for root in fast.telemetry.tracer.traces()]
    assert fast_spans == [
        encode_trace(root) for root in slow.telemetry.tracer.traces()
    ]
    assert len(fast_spans) == len(stream) + 1
    assert {name for ((_, name, *_),) in fast_spans} == {"auth.query"}
    assert fast.telemetry.registry.as_dict() == slow.telemetry.registry.as_dict()
    assert fast.stats == slow.stats


def _count_parses(server: AuthoritativeServer) -> list[int]:
    """Count question parses: a query answered from an alias has none."""
    calls = [0]
    parse = server._parse_fast_query

    def counting(wire):
        calls[0] += 1
        return parse(wire)

    server._parse_fast_query = counting  # type: ignore[method-assign]
    return calls


def _alias_stream() -> list[bytes]:
    """One shape many times over (the first a miss, the second a parsed
    hit that files the alias), first labels of every case and length."""
    labels = ["m-8-0", "m-8-1", "MiXeD-Case", "x", "Q" * 63, "m-8-5"]
    return [
        Message.make_query(
            f"{label}.probe.example.org.", RRType.TXT, msg_id=300 + tick
        ).to_wire()
        for tick, label in enumerate(labels)
    ]


def test_alias_hits_book_what_the_parsed_path_books():
    zone = build_zone()
    ledger = Telemetry.enabled_bundle(costs=True)
    fast = AuthoritativeServer("site-a", [zone], telemetry=ledger)
    slow = slow_server([zone], telemetry=Telemetry.enabled_bundle())
    parses = _count_parses(fast)
    stream = _alias_stream()
    for tick, wire in enumerate(stream):
        client, now = f"10.0.0.{tick % 3}", tick * 0.5
        assert fast.handle_wire(wire, client, now) == slow.handle_wire(
            wire, client, now
        )
    assert parses[0] == 2 and len(fast._aliases) == 1  # the rest were aliases
    totals = ledger.costs.totals()
    assert totals["template_hit"] == len(stream) - 1
    assert totals["template_miss"] == 1
    assert fast.stats == slow.stats
    assert captured(fast) == captured(slow)
    assert [qname for _, _, qname, _, _ in captured(fast)][2:4] == [
        "MiXeD-Case.probe.example.org.", "x.probe.example.org.",
    ]
    # The reference idiom switches templates off, and aliases with them.
    assert not slow._templates and not slow._aliases


def test_traced_alias_hits_book_the_spans_of_the_traced_slow_path():
    zone = build_zone()
    fast, slow = traced_pair([zone])
    parses = _count_parses(fast)
    for tick, wire in enumerate(_alias_stream()):
        client, now = f"10.0.0.{tick % 3}", tick * 0.5
        assert fast.handle_wire(wire, client, now) == slow.handle_wire(
            wire, client, now
        )
    assert parses[0] == 2 and fast._aliases
    assert [encode_trace(root) for root in fast.telemetry.tracer.traces()] == [
        encode_trace(root) for root in slow.telemetry.tracer.traces()
    ]
    assert fast.telemetry.registry.as_dict() == slow.telemetry.registry.as_dict()
    assert fast.stats == slow.stats


def test_alias_refuses_what_its_template_may_not_answer():
    """Past the alias, the first label still decides: an existing name
    (any case), a zone origin, an answer that outgrows the payload and
    a name over 255 bytes all go back through the parsed path and
    answer as the slow path does."""
    zone = build_zone()
    zone.add("exists.probe.example.org.", RRType.TXT, TXT.from_value("own"), ttl=5)
    for index in range(2):  # ~430 bytes of answer: 512 fits short names only
        zone.add("*.big.example.org.", RRType.TXT,
                 TXT.from_value(str(index) * 200), ttl=5)
    child = Zone("origin.probe.example.org.")
    child.add("origin.probe.example.org.", RRType.TXT, TXT.from_value("apex"))
    fast, slow = traced_pair([zone, child])
    # 244 suffix bytes: a first label of up to ten bytes fits in 255.
    long_suffix = ".".join(["s" * 63] * 3 + ["s" * 32]) + ".probe.example.org."

    def ask(wire: bytes) -> bytes | None:
        answer = fast.handle_wire(wire)
        assert answer == slow.handle_wire(wire)
        return answer

    def query(label: str, suffix: str) -> bytes:
        message = Message.make_query(f"{label}.{suffix}", RRType.TXT, msg_id=1)
        return message.use_edns(512).to_wire()

    for suffix in ("probe.example.org.", "big.example.org.", long_suffix):
        ask(query("warm-0", suffix))
        ask(query("warm-1", suffix))
    assert len(fast._aliases) == 3
    parses = _count_parses(fast)
    assert b"own" in ask(query("exists", "probe.example.org."))
    assert b"own" in ask(query("EXISTS", "probe.example.org."))
    assert b"apex" in ask(query("origin", "probe.example.org."))
    assert not Message.from_wire(ask(query("b", "big.example.org."))).truncated
    assert Message.from_wire(ask(query("b" * 63, "big.example.org."))).truncated
    fits = query("a" * 10, long_suffix)
    assert ask(fits) is not None
    too_long = fits[:12] + b"\x0b" + b"c" * 11 + fits[23:]  # a 256-byte name
    assert ask(too_long) is None
    assert parses[0] == 5  # the five refusals; the two that fit were aliases
    assert fast.stats == slow.stats
    assert captured(fast) == captured(slow)


def _count_answers(server: AuthoritativeServer) -> list[int]:
    """Count ``_answer`` calls (real and canary) through a per-instance wrapper."""
    calls = [0]
    answer = server._answer

    def counting(query):
        calls[0] += 1
        return answer(query)

    server._answer = counting  # type: ignore[method-assign]
    return calls


def test_uncachable_key_is_proved_once_not_on_every_miss():
    """NXDOMAIN one label below the apex can never be a template (the SOA
    owner is a pointer whose target moves with the first label's length);
    the server finds that out once, not once per query."""
    zone = build_zone()
    fast, slow = AuthoritativeServer("site-a", [zone]), slow_server([zone])
    calls = _count_answers(fast)
    rounds = 12
    for tick in range(rounds):
        wire = Message.make_query(
            f"gone-{'x' * tick}.example.org.", RRType.A, msg_id=tick
        ).to_wire()
        assert fast.handle_wire(wire) == slow.handle_wire(wire)
    assert calls[0] == rounds + 1  # one canary, then none
    assert not fast._templates and len(fast._uncachable) == 1
    assert fast.stats == slow.stats

    # A wildcard at the apex turns the same key into a cachable answer.
    zone = build_zone()
    zone.add("*.example.org.", RRType.A, A("192.0.2.9"))
    fast, slow = AuthoritativeServer("site-a", [zone]), slow_server([zone])
    calls = _count_answers(fast)
    for tick in range(3):
        wire = Message.make_query(
            f"back-{tick}.example.org.", RRType.A, msg_id=50 + tick
        ).to_wire()
        assert fast.handle_wire(wire) == slow.handle_wire(wire)
    assert calls[0] == 2 and fast._templates  # miss + canary, then hits


def test_uncachable_keys_are_bounded():
    zone = build_zone()
    server = AuthoritativeServer("site-a", [zone])
    server._TEMPLATE_MAX = 8  # type: ignore[misc]
    for tick in range(30):
        # A fresh suffix per query: a fresh un-cachable NXDOMAIN key each.
        server.handle_wire(
            Message.make_query(f"a.s{tick}.example.org.", RRType.A, msg_id=tick).to_wire()
        )
        assert len(server._uncachable) <= 8
    assert server.stats.nxdomain == 30


def test_queries_for_other_suffixes_refused_identically():
    zone = build_zone()
    fast = AuthoritativeServer("site-a", [zone])
    slow = slow_server([zone])
    wire = Message.make_query("else.where.net.", RRType.A, msg_id=11).to_wire()
    for _ in range(3):
        assert fast.handle_wire(wire) == slow.handle_wire(wire)
    assert fast.stats.refused == slow.stats.refused == 3


def _odd_wires() -> list[bytes]:
    """Queries the fast parser must hand to the full decoder, and a few
    the template builder must refuse, each a hit-or-miss candidate."""
    from repro.dns.message import Question
    from repro.dns.name import MAX_NAME_LENGTH
    from repro.dns.records import ResourceRecord
    from repro.dns.types import Opcode, RRClass

    def query(name="m-5-0.probe.example.org.", rrtype=RRType.TXT, **edits):
        message = Message.make_query(name, rrtype, msg_id=5)
        for attr, value in edits.items():
            setattr(message, attr, value)
        return message

    wires = [query(flags=0x8100).to_wire(), query(opcode=Opcode.NOTIFY).to_wire()]
    extra = query()
    extra.additionals.append(
        ResourceRecord(Name(()), RRType.A, RRClass.IN, 0, A("192.0.2.9"))
    )
    wires.append(extra.to_wire())  # an additional that is not an OPT
    owned = query()
    owned.additionals.append(
        ResourceRecord(Name.from_text("x."), RRType.A, RRClass.IN, 0, A("192.0.2.9"))
    )
    wires.append(owned.to_wire())  # ... nor owned by the root
    wires.append(query().request_nsid().to_wire()[:-1])  # OPT rdata cut short
    opt = query().use_edns(1232)
    opt.edns_options.append((10, b"abc"))
    bad_options = bytearray(opt.to_wire())
    bad_options[-5] = 9  # the option runs past the OPT rdata
    wires += [bytes(bad_options), query().to_wire() + b"\0", query().to_wire()[:-2]]
    # A question name that points at itself through the header.
    wires.append(query().to_wire()[:12] + b"\x01x\xc0\x00" + b"\x00\x10\x00\x01")
    # A name at the length limit whose first label is one byte: the
    # two-byte canary label cannot be put in its place.
    name = Name.from_text("probe.example.org.")
    for length in (40, 40, 40, 40, 40, 28):
        name = name.child(b"z" * length)
    name = name.child(b"q")
    assert name.wire_length() == MAX_NAME_LENGTH
    wires.append(query(name.to_text()).to_wire())
    wires.append(query(rrtype=99).to_wire())  # a type without an RRType
    two = query()
    two.questions.append(Question(Name.from_text("www.example.org."), RRType.A))
    wires.append(two.to_wire())
    return wires


def test_odd_queries_fall_back_and_answer_like_the_slow_path():
    zone = build_zone()
    fast, slow = traced_pair([zone])
    for wire in _odd_wires() * 2:  # the second round meets warm caches
        assert fast.handle_wire(wire) == slow.handle_wire(wire), wire
    assert fast.stats == slow.stats
    assert captured(fast) == captured(slow)
    assert fast.handle_wire_tcp(b"\x00\x01garbage") is None
    assert fast.stats.formerr == slow.stats.formerr + 1


def test_template_cache_resets_when_full():
    server = AuthoritativeServer("site-a", [build_zone()])
    server._TEMPLATE_MAX = 3
    for index in range(5):
        zone_name = f"z{index}.probe.example.org."
        server.handle_wire(
            Message.make_query(f"m.{zone_name}", RRType.TXT, msg_id=index).to_wire()
        )
    assert 0 < len(server._templates) <= 3


def test_a_miss_without_a_template_parses_once_then_only_decodes():
    """Alias bytes whose key met no template skip the question parse from
    then on — one full decode per query, bytes and bookkeeping as the slow
    path's — until a template is stored."""
    zone = build_zone()
    fast, slow = traced_pair([zone])
    parses = _count_parses(fast)

    def ask(name: str, rrtype: RRType, msg_id: int) -> None:
        wire = Message.make_query(name, rrtype, msg_id=msg_id).to_wire()
        assert fast.handle_wire(wire) == slow.handle_wire(wire)

    for tick in range(4):
        ask(f"gone-{'x' * tick}.example.org.", RRType.A, tick)  # uncachable
        ask("www.example.org.", RRType.A, tick)  # exists: same alias bytes
        ask("example.org.", RRType.SOA, tick)  # a zone origin
    assert parses[0] == 2 and len(fast._untemplated) == 2
    ask("m-1-1.probe.example.org.", RRType.TXT, 50)  # stores a template
    assert parses[0] == 3 and fast._templates and not fast._untemplated
    ask("www.example.org.", RRType.A, 51)
    assert parses[0] == 4 and fast._untemplated
    assert fast.stats == slow.stats
    assert captured(fast) == captured(slow)
