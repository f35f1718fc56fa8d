"""Property-based tests: zone lookup invariants."""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import CNAME, NS, SOA, TXT, A
from repro.dns.records import RRset
from repro.dns.rrl import ResponseRateLimiter
from repro.dns.server import AuthoritativeServer, ServerStats
from repro.dns.types import RRType
from repro.dns.zone import WILDCARD_LABEL, LookupResult, LookupStatus, Zone
from repro.telemetry import Telemetry

ORIGIN = Name.from_text("example.nl.")

label = st.from_regex(r"[a-z0-9]{1,10}", fullmatch=True)
relative_name = st.lists(label, min_size=1, max_size=3).map(
    lambda labels: Name.from_text(".".join(labels) + ".example.nl.")
)

rdata_choice = st.one_of(
    st.just(A("192.0.2.1")),
    st.builds(lambda s: TXT.from_value(s), st.text(min_size=0, max_size=30)),
)


@st.composite
def populated_zone(draw):
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.example.nl."),
            Name.from_text("h.example.nl."),
            1, 2, 3, 4, 300,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    names = draw(st.lists(relative_name, min_size=0, max_size=8))
    for name in names:
        rdata = draw(rdata_choice)
        rrtype = RRType.A if isinstance(rdata, A) else RRType.TXT
        zone.add(name, rrtype, rdata)
    return zone, names


class TestZoneLookupProperties:
    @settings(max_examples=80, deadline=None)
    @given(populated_zone(), relative_name, st.sampled_from([RRType.A, RRType.TXT, RRType.AAAA]))
    def test_lookup_never_crashes_and_status_consistent(self, zone_and_names, qname, qtype):
        zone, _ = zone_and_names
        result = zone.lookup(qname, qtype)
        assert result.status in LookupStatus
        if result.status == LookupStatus.SUCCESS:
            assert result.answers
            for rrset in result.answers:
                assert rrset.name == qname
                assert rrset.rrtype == qtype
        if result.status in (LookupStatus.NXDOMAIN, LookupStatus.NODATA):
            assert not result.answers
            # Negative answers carry the SOA for negative caching.
            assert any(rs.rrtype == RRType.SOA for rs in result.authority)

    @settings(max_examples=80, deadline=None)
    @given(populated_zone())
    def test_every_added_name_resolves(self, zone_and_names):
        zone, names = zone_and_names
        for name in names:
            found_any = False
            for rrtype in (RRType.A, RRType.TXT):
                result = zone.lookup(name, rrtype)
                assert result.status != LookupStatus.NXDOMAIN
                if result.status == LookupStatus.SUCCESS:
                    found_any = True
            assert found_any

    @settings(max_examples=50, deadline=None)
    @given(populated_zone(), relative_name)
    def test_lookup_case_insensitive(self, zone_and_names, qname):
        zone, _ = zone_and_names
        upper = Name.from_text(qname.to_text().upper())
        for rrtype in (RRType.A, RRType.TXT):
            assert zone.lookup(qname, rrtype).status == zone.lookup(upper, rrtype).status

    @settings(max_examples=50, deadline=None)
    @given(populated_zone())
    def test_out_of_zone_always_nxdomain(self, zone_and_names):
        zone, _ = zone_and_names
        result = zone.lookup(Name.from_text("www.other.org."), RRType.A)
        assert result.status == LookupStatus.NXDOMAIN


class TestCnameProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(label, min_size=2, max_size=5, unique=True))
    def test_cname_chains_always_terminate(self, labels):
        zone = Zone(ORIGIN)
        # Build a chain a -> b -> c ... and close it into a loop.
        names = [Name.from_text(f"{lab}.example.nl.") for lab in labels]
        for src, dst in zip(names, names[1:]):
            zone.add(src, RRType.CNAME, CNAME(dst))
        zone.add(names[-1], RRType.CNAME, CNAME(names[0]))
        result = zone.lookup(names[0], RRType.A)
        assert result.status == LookupStatus.CNAME
        assert len(result.answers) <= len(names) + 1


# -- differential: the indexed lookup against the label-by-label walk --------


def _reference_find_zone_cut(zone, qname):
    """``Zone._find_zone_cut`` as it was before the lookup index."""
    relative = qname.relativize(zone.origin)
    name = zone.origin
    for label_ in reversed(relative):
        name = name.child(label_)
        if (name, RRType.NS) in zone._rrsets:
            return name
    return None


def _reference_try_wildcard(zone, qname, qtype):
    """``Zone._try_wildcard`` as it was: two fresh names per level."""
    relative = qname.relativize(zone.origin)
    for skip in range(1, len(relative) + 1):
        encloser = Name._from_validated(relative[skip:] + zone.origin.labels)
        wildcard = encloser.child(WILDCARD_LABEL)
        if encloser in zone._names:
            rrset = zone._rrsets.get((wildcard, qtype))
            if rrset:
                synthesized = RRset(qname, rrset.rrtype, rrset.rrclass, rrset.ttl)
                for rdata in rrset:
                    synthesized.add(rdata)
                return LookupResult(LookupStatus.SUCCESS, answers=[synthesized])
            if wildcard in zone._names:
                return zone._negative(LookupStatus.NODATA)
            return None
    return None


def _reference_lookup(zone, qname, qtype):
    """``Zone.lookup`` over the two walks above; the oracle for the index."""
    if not qname.is_subdomain_of(zone.origin):
        return LookupResult(LookupStatus.NXDOMAIN)
    cut = _reference_find_zone_cut(zone, qname)
    if cut is not None:
        ns_rrset = zone._rrsets[(cut, RRType.NS)]
        result = LookupResult(LookupStatus.DELEGATION, authority=[ns_rrset])
        result.additional = zone._glue_for(ns_rrset)
        return result
    if qname in zone._names:
        rrset = zone._rrsets.get((qname, qtype))
        if rrset:
            return LookupResult(LookupStatus.SUCCESS, answers=[rrset])
        cname = zone._rrsets.get((qname, RRType.CNAME))
        if cname and qtype != RRType.CNAME:
            return zone._chase_cname(cname, qtype)
        if qtype == RRType.ANY:
            answers = [rs for rs in zone._by_owner.get(qname, {}).values() if rs]
            if answers:
                return LookupResult(LookupStatus.SUCCESS, answers=answers)
        return zone._negative(LookupStatus.NODATA)
    wildcard_result = _reference_try_wildcard(zone, qname, qtype)
    if wildcard_result is not None:
        return wildcard_result
    return zone._negative(LookupStatus.NXDOMAIN)


def _assert_same_result(got, want, context):
    assert got.status == want.status, context
    for section in ("answers", "authority", "additional"):
        ours, theirs = getattr(got, section), getattr(want, section)
        assert len(ours) == len(theirs), (context, section)
        for a, b in zip(ours, theirs):
            # Stored RRsets must be the very same objects; a wildcard
            # synthesis is fresh on both sides and must match in content,
            # owner spelling included.
            assert a is b or (
                a == b and a.name.labels == b.name.labels
            ), (context, section)


# A small alphabet, so owners, cuts, wildcards and query names collide:
# cuts at depth 1-3, "*" under the apex and under non-terminals, "*"
# below a cut, "*" as an empty non-terminal, empty non-terminals.
_labels = st.sampled_from(["a", "b", "sub", "*", "W"])
_owner = st.lists(_labels, min_size=1, max_size=4).map(
    lambda labels: Name.from_text(".".join(labels) + ".example.nl.")
)
_RDATA = {
    RRType.A: [A("192.0.2.1"), A("192.0.2.2")],
    RRType.TXT: [TXT.from_value("one"), TXT.from_value("two")],
    RRType.NS: [
        NS(Name.from_text("ns.sub.example.nl.")),
        NS(Name.from_text("a.b.example.nl.")),
    ],
    RRType.CNAME: [CNAME(Name.from_text("a.example.nl."))],
}
_stored_type = st.sampled_from(sorted(_RDATA))
_add = st.tuples(_owner, _stored_type, st.integers(min_value=0, max_value=1))
_qtype = st.sampled_from(
    [RRType.A, RRType.TXT, RRType.NS, RRType.CNAME, RRType.AAAA, RRType.ANY]
)


def _build(adds, with_apex: bool = True, fresh: bool = False) -> Zone:
    """A zone of the drawn ``(owner, type, pick)`` adds, under an apex SOA
    and NS unless ``with_apex`` is false; ``fresh`` gives it rdata
    objects that have never been encoded."""
    zone = Zone(ORIGIN)
    if with_apex:  # without: a zone whose origin need not be a name
        zone.add(
            ORIGIN,
            RRType.SOA,
            SOA(Name.from_text("ns1.example.nl."),
                Name.from_text("h.example.nl."), 1, 2, 3, 4, 300),
        )
        zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    for owner, rrtype, pick in adds:
        rdata = _RDATA[rrtype][pick % len(_RDATA[rrtype])]
        zone.add(owner, rrtype, dataclasses.replace(rdata) if fresh else rdata)
    return zone


class TestIndexedLookupMatchesTheWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans(),
        st.lists(_add, min_size=1, max_size=14),
        st.lists(st.tuples(_owner, _qtype), max_size=12),
    )
    def test_lookup_equals_reference_walk_across_mutations(
        self, with_apex, adds, questions
    ):
        """The zone is built from the drawn adds and frozen; then the
        indexed lookup answers every question as the walk does."""
        zone = _build(adds, with_apex)
        zone.freeze()
        # The apex, a name above it and every owner's spelling in
        # another case ride along with the drawn questions.
        for qname, qtype in questions + [
            (ORIGIN, RRType.NS),
            (Name.from_text("nl."), RRType.A),
        ] + [
            (Name.from_text(owner.to_text().swapcase()), RRType.TXT)
            for owner, _rrtype, _pick in adds
        ]:
            _assert_same_result(
                zone.lookup(qname, qtype),
                _reference_lookup(zone, qname, qtype),
                (adds, qname, qtype),
            )

    def test_wildcard_below_a_cut_is_hidden_by_the_referral(self):
        wildcard = (Name.from_text("*.sub.example.nl."), RRType.TXT, 0)
        cut = (Name.from_text("sub.example.nl."), RRType.NS, 0)
        qname = Name.from_text("x.sub.example.nl.")
        for adds, status in (
            ([cut, wildcard], LookupStatus.DELEGATION),  # occluded
            ([wildcard], LookupStatus.SUCCESS),  # the same wildcard, uncovered
        ):
            zone = _build(adds, with_apex=False)
            result = zone.lookup(qname, RRType.TXT)
            assert result.status == status
            _assert_same_result(
                result, _reference_lookup(zone, qname, RRType.TXT), status
            )


# -- a long-lived server against a freshly built one -------------------------


# Few owners, so that adds pile up on the same RRsets: an apex wildcard,
# a cut with a name below it, a wildcard under an empty non-terminal,
# another spelling of a name.
_edited_owner = st.sampled_from([
    Name.from_text(text) for text in (
        "a.example.nl.", "*.example.nl.", "sub.example.nl.", "a.sub.example.nl.",
        "*.b.example.nl.", "W.A.example.nl.",
    )
])
_edit = st.tuples(
    _edited_owner, _stored_type, st.integers(min_value=0, max_value=1)
)
#: a second spelling of a question: EDNS payload (or none), RD, and
#: which letters of the suffix are upper case (bit i: i-th suffix byte)
_respelling = st.tuples(
    st.sampled_from([None, 512, 1232, 4096]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**20 - 1),
)
_asked = st.tuples(_owner, _qtype, st.booleans(), st.booleans(), _respelling)
#: under a wildcard whose answer fits 1232 bytes but not 512
_BIG = Name.from_text("q.big.example.nl.")


def _questions(owner, edns: bool, asked, respelling):
    """The drawn questions plus ``owner``'s (every stored type, ANY, a
    name below it: wildcards, cuts) and one under ``_BIG``'s wildcard —
    each as drawn, then in its second spelling."""
    below = owner.child(b"q")
    around = [(owner, rrtype, edns, False) for rrtype in _RDATA] + [
        (owner, RRType.ANY, False, True),
        (below, RRType.A, False, False), (below, RRType.TXT, True, True),
        (_BIG, RRType.TXT, True, False),
    ]
    wires = []
    for qname, qtype, with_edns, swapcase, *drawn in asked + around:
        payload, rd, mask = drawn[0] if drawn else respelling
        if swapcase:
            qname = Name.from_text(qname.to_text().swapcase())
        wires.append(_wire(qname, qtype, 1232 if with_edns else None, True))
        wires.append(_wire(_recased(qname, mask), qtype, payload, rd))
    return wires


def _recased(qname: Name, mask: int) -> Name:
    """``qname`` with the suffix letters ``mask`` picks upper-cased."""
    first, *rest = qname.labels
    suffix = b".".join(rest)
    recased = bytes(
        byte & ~0x20 if mask >> index & 1 and 0x61 <= byte <= 0x7A else byte
        for index, byte in enumerate(suffix)
    )
    return Name([first, *recased.split(b".")])


def _wire(qname, qtype, payload: int | None, rd: bool) -> bytes:
    query = Message.make_query(qname, qtype, msg_id=7, recursion_desired=rd)
    if payload is not None:
        query.use_edns(payload)
    return query.to_wire()


def _seeded_zone(edits, fresh: bool) -> Zone:
    """The drawn adds, then an apex wildcard and a big one."""
    zone = _build(edits, fresh=fresh)
    zone.add("*.example.nl.", RRType.TXT, TXT.from_value("wild"))
    for index in range(3):
        zone.add("*.big.example.nl.", RRType.TXT, TXT.from_value(str(index) * 200))
    return zone


def _query_spans(server: AuthoritativeServer) -> list[tuple[dict, float]]:
    """The attributes and start of every ``auth.query`` span ``server``
    booked: its capture of the queries it answered."""
    return [
        (span.attributes, span.start)
        for root in server.telemetry.tracer.traces()
        for span in root.trace
        if span.name == "auth.query"
    ]


class TestServerAnswersTrackZoneVersion:
    """Whatever a server keeps from earlier answers holds for every
    later one: a long-lived server (plain, and under a limiter that
    never limits) sends, counts and spans exactly what a freshly built
    slow-path server over a freshly built copy of its zone does.  The
    drawn edits all land before the servers take the zone, which they
    freeze.  Every question goes out twice, so that the second send
    meets whatever the first one left (a template, an alias), and in a
    second spelling (suffix case, EDNS payload, RD)."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_edit, max_size=12),
        st.lists(
            st.tuples(_edited_owner, st.booleans(),
                      st.lists(_asked, max_size=3), _respelling),
            min_size=1, max_size=12,
        ),
    )
    # A cached two-RR set, always tried.
    @example(
        [(Name.from_text("a.example.nl."), RRType.A, 0),
         (Name.from_text("a.example.nl."), RRType.A, 1)],
        [(Name.from_text("a.example.nl."), True, [], (512, True, 0)),
         (Name.from_text("a.example.nl."), False, [], (4096, True, 1))],
    )
    def test_handle_wire_equals_a_fresh_server_after_every_edit(self, edits, steps):
        zone = _seeded_zone(edits, fresh=False)
        plain = AuthoritativeServer(
            "srv", [zone], telemetry=Telemetry.enabled_bundle()
        )
        limited = AuthoritativeServer(
            "srv", [zone], telemetry=Telemetry.enabled_bundle(),
            rate_limiter=ResponseRateLimiter(responses_per_second=10**9),
        )
        fresh_zone = _seeded_zone(edits, fresh=True)
        for step, (owner, edns, asked, respelling) in enumerate(steps):
            wires = _questions(owner, edns, asked, respelling)
            for wire in wires * 2:  # warm whatever the servers keep
                plain.handle_wire(wire, "192.0.2.1")
                limited.handle_wire(wire, "192.0.2.1")
            fresh = AuthoritativeServer(
                "srv", [fresh_zone], telemetry=Telemetry.enabled_bundle()
            )
            fresh._parse_fast_query = lambda wire: None
            for server in (plain, limited):
                server.stats = ServerStats()
                server.telemetry.tracer.roots.clear()
            context = (edits, steps[: step + 1])
            for wire in wires:
                for _ in range(2):
                    want = fresh.handle_wire(wire, "192.0.2.1")
                    assert plain.handle_wire(wire, "192.0.2.1") == want, context
                    assert limited.handle_wire(wire, "192.0.2.1") == want, context
                want = fresh.handle_wire_tcp(wire, "192.0.2.1")
                assert plain.handle_wire_tcp(wire, "192.0.2.1") == want, context
                assert limited.handle_wire_tcp(wire, "192.0.2.1") == want, context
            assert plain.stats == limited.stats == fresh.stats, context
            spans = _query_spans(fresh)
            assert _query_spans(plain) == spans == _query_spans(limited), context
