"""Every byte the authoritative engine emits, pinned over a fixed corpus.

The campaign hashes cannot see an encoder change (resolvers read only
the rcode and the TXT marker) and ``serve_mixed``'s oracle compares the
tree against itself, so this file is what holds ``handle_wire`` and
``handle_wire_tcp`` to their bytes: one SHA-256 over every response of
a corpus that covers each answer shape the engine produces — limited,
slipped and dropped responses, the serving mix's six query classes,
EDNS and NSID, UDP truncation, glue, CNAME chains, negative answers,
CHAOS, the delegation-bomb referral and AXFR.

``CORPUS_SHA256`` was recorded before the encoder learned to reuse
cached wire fragments; a change that moves it changed what the server
sends.
"""

from __future__ import annotations

import hashlib

from repro.core.deployment import build_zone
from repro.dns.server import AXFR_TYPE_CODE as AXFR
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import AAAA, CAA, CNAME, MX, NS, SOA, SRV, TXT, A
from repro.dns.rrl import ResponseRateLimiter
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Opcode, RRClass, RRType
from repro.dns.zone import Zone
from repro.netsim.adversary import DelegationBomb

CORPUS_SHA256 = "7f1bae8348695cd539335c076e3529f9b9643bc2af092257a52b1da276b7c3a1"

ORIGIN = Name.from_text("example.nl.")
SERVE_ORIGIN = Name.from_text("ourtestdomain.nl.")


def _limited_zone() -> Zone:
    """The zone of ``test_rrl.TestEveryStageRunsUnderALimiter``."""
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
            1, 2, 3, 4, 5),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("t.example.nl.", RRType.TXT, TXT.from_value("answer"))
    zone.add("*.probe.example.nl.", RRType.TXT, TXT.from_value("site"))
    return zone


def _shapes_zone() -> Zone:
    """Delegation with glue, CNAME chain, big RRsets, every rdata kind."""
    zone = _limited_zone()
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns2.example.nl.")))
    zone.add(ORIGIN, RRType.MX, MX(10, Name.from_text("mail.example.nl.")))
    zone.add(ORIGIN, RRType.CAA, CAA(0, "iodef", "mailto:ops@example.net"))
    zone.add("ns1.example.nl.", RRType.A, A("192.0.2.1"))
    zone.add("ns2.example.nl.", RRType.A, A("192.0.2.2"))
    zone.add("ns2.example.nl.", RRType.AAAA, AAAA("2001:db8::2"))
    zone.add("mail.example.nl.", RRType.A, A("192.0.2.25"))
    zone.add(
        "_dns._udp.example.nl.", RRType.SRV,
        SRV(0, 5, 53, Name.from_text("ns1.example.nl.")),
    )
    # Delegation with in-zone A / AAAA glue, and one out-of-zone target.
    for target in ("ns.sub.example.nl.", "ns2.sub.example.nl.", "ns.example.org."):
        zone.add("sub.example.nl.", RRType.NS, NS(Name.from_text(target)))
    zone.add("ns.sub.example.nl.", RRType.A, A("198.51.100.53"))
    zone.add("ns.sub.example.nl.", RRType.AAAA, AAAA("2001:db8:53::1"))
    zone.add("ns2.sub.example.nl.", RRType.A, A("198.51.100.54"))
    # A CNAME chain ending in an address, and one leaving the zone.
    zone.add("a.example.nl.", RRType.CNAME, CNAME(Name.from_text("b.example.nl.")))
    zone.add("b.example.nl.", RRType.CNAME, CNAME(Name.from_text("c.example.nl.")))
    zone.add("c.example.nl.", RRType.A, A("192.0.2.3"))
    zone.add("c.example.nl.", RRType.A, A("192.0.2.4"))
    zone.add("out.example.nl.", RRType.CNAME, CNAME(Name.from_text("www.example.org.")))
    # Too big for 512 bytes, fits 1232.
    for index in range(12):
        zone.add("fat.example.nl.", RRType.TXT,
                 TXT.from_value(f"s{index:02d}-" + "x" * 60), ttl=300)
    zone.add("multi.example.nl.", RRType.TXT, TXT((b"one", b"", b"three")))
    return zone


def _serve_zone() -> Zone:
    """``repro serve``'s benchmark zone: the testbed zone plus ``www``."""
    ns_names = [Name.from_text(f"ns{i}").concatenate(SERVE_ORIGIN) for i in range(1, 5)]
    zone = build_zone(SERVE_ORIGIN, ns_names, "bench-site")
    zone.add(Name.from_text("www").concatenate(SERVE_ORIGIN), RRType.A,
             A("192.0.2.80"), ttl=300)
    return zone


def _query(qname, qtype, msg_id, *, edns=None, nsid=False, rd=True,
           rrclass=RRClass.IN) -> bytes:
    query = Message.make_query(qname, qtype, rrclass, msg_id=msg_id,
                               recursion_desired=rd)
    if edns is not None:
        query.use_edns(edns)
    if nsid:
        query.request_nsid()
    return query.to_wire()


def _limited_stream() -> list[bytes]:
    stream = []
    for index in range(40):
        stream += [
            (f"nxns-{index:04x}.example.nl.", RRType.A),
            (f"m-{index}.probe.example.nl.", RRType.TXT),
            ("t.example.nl.", RRType.TXT),
            ("t.example.nl.", RRType.TXT),
            (f"x{index % 2}.example.org.", RRType.A),
        ]
    return [
        _query(qname, qtype, index) for index, (qname, qtype) in enumerate(stream)
    ]


def _serve_stream() -> list[bytes]:
    """The serving mix's six classes, each more than once (templates)."""
    wires = []
    for index in range(6):
        wires += [
            _query(f"b{index:04x}.probe.ourtestdomain.nl.", RRType.TXT, index, rd=False),
            _query(f"e{index:04x}.probe.ourtestdomain.nl.", RRType.TXT, index,
                   edns=1232, rd=False),
            _query(f"nx{index:04x}.ourtestdomain.nl.", RRType.A, index, rd=False),
            _query("ourtestdomain.nl.", RRType.NS, index, edns=1232, rd=False),
            _query("www.ourtestdomain.nl.", RRType.A, index, rd=False),
            _query("ourtestdomain.nl.", RRType.SOA, index, edns=4096, rd=False),
            _query(f"n{index}.probe.ourtestdomain.nl.", RRType.TXT, index,
                   edns=1232, nsid=True),
        ]
    return wires


def _shape_questions() -> list[bytes]:
    questions = [
        ("sub.example.nl.", RRType.A), ("x.sub.example.nl.", RRType.TXT),
        ("X.Sub.EXAMPLE.nl.", RRType.AAAA),
        ("a.example.nl.", RRType.A), ("A.example.NL.", RRType.A),
        ("out.example.nl.", RRType.A), ("a.example.nl.", RRType.CNAME),
        ("t.example.nl.", RRType.A), ("empty.example.nl.", RRType.A),
        ("probe.example.nl.", RRType.A), ("zz.probe.example.nl.", RRType.A),
        ("gone.example.org.", RRType.A), ("example.nl.", RRType.ANY),
        ("example.nl.", RRType.MX), ("example.nl.", RRType.CAA),
        ("example.nl.", RRType.NS), ("ns2.example.nl.", RRType.ANY),
        ("_dns._udp.example.nl.", RRType.SRV), ("multi.example.nl.", RRType.TXT),
        ("T.Example.Nl.", RRType.TXT), ("w.PROBE.example.nl.", RRType.TXT),
        ("fat.example.nl.", RRType.TXT),
    ]
    wires = [_query(q, t, i) for i, (q, t) in enumerate(questions)]
    wires += [
        _query("fat.example.nl.", RRType.TXT, 90, edns=1232),
        _query("fat.example.nl.", RRType.TXT, 91, edns=512),
        _query("fat.example.nl.", RRType.TXT, 92, edns=512, nsid=True),
        _query("sub.example.nl.", RRType.NS, 93, edns=4096, nsid=True),
        _query("id.server.", RRType.TXT, 94, rrclass=RRClass.CH),
        _query("hostname.bind.", RRType.TXT, 95, rrclass=RRClass.CH, edns=1232),
        _query("version.bind.", RRType.TXT, 96, rrclass=RRClass.CH),
        _query("t.example.nl.", RRType.TXT, 97, rrclass=RRClass.HS),
    ]
    notify = Message.make_query("example.nl.", RRType.SOA, msg_id=98)
    notify.opcode = Opcode.NOTIFY
    wires.append(notify.to_wire())
    wires.append(Message(msg_id=99).to_wire())  # no question: FORMERR
    wires.append(b"\x00\x01garbage")  # undecodable: no answer
    return wires


def _axfr(origin: str, msg_id: int) -> bytes:
    query = Message(msg_id=msg_id)
    query.questions.append(Question(Name.from_text(origin), AXFR, RRClass.IN))
    return query.to_wire()


def _tcp_questions() -> list[bytes]:
    return [
        _axfr("example.nl.", 200),
        _axfr("sub.example.nl.", 201),  # not an apex: REFUSED
        _query("fat.example.nl.", RRType.TXT, 202),
        _query("fat.example.nl.", RRType.TXT, 203, edns=1232),
        _query("sub.example.nl.", RRType.A, 204),
        _query("gone.example.nl.", RRType.A, 205, edns=4096),
    ]


def corpus_responses() -> list[bytes | None]:
    """Every response of the corpus, in a fixed order."""
    out: list[bytes | None] = []

    limited = AuthoritativeServer(
        "srv", [_limited_zone()],
        rate_limiter=ResponseRateLimiter(responses_per_second=3, slip_ratio=2),
    )
    out += [limited.handle_wire(w, "1.2.3.4:53", 0.0) for w in _limited_stream()]

    served = AuthoritativeServer("repro-authoritative", [_serve_zone()])
    out += [served.handle_wire(w, "127.0.0.1:0", 1.0) for w in _serve_stream()]

    shapes = AuthoritativeServer("shapes", [_shapes_zone()])
    out += [shapes.handle_wire(w, "192.0.2.9", 2.0) for w in _shape_questions()]
    out += [shapes.handle_wire_tcp(w, "192.0.2.9:4000", 3.0) for w in _tcp_questions()]

    bomb = DelegationBomb("attacker.example.", "example.nl.", fan_out=10, seed=7)
    for limiter in (None, ResponseRateLimiter(responses_per_second=2, slip_ratio=2)):
        attacker = AuthoritativeServer("attacker", [bomb.build_zone()],
                                       rate_limiter=limiter)
        for index in range(6):
            wire = _query(bomb.qname(0, f"q{index}".encode()), RRType.A, index)
            out.append(attacker.handle_wire(wire, "10.0.0.1", 4.0))
    return out


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for wire in corpus_responses():
        if wire is None:
            digest.update(b"\xff\xff<none>")
        else:
            digest.update(len(wire).to_bytes(2, "big") + wire)
    return digest.hexdigest()


def test_corpus_covers_every_outcome():
    responses = corpus_responses()
    answered = [Message.from_wire(w) for w in responses if w is not None]
    assert None in responses  # drops and garbage
    assert any(m.truncated and not m.answers for m in answered)  # slips, TC
    assert {m.rcode.name for m in answered} >= {
        "NOERROR", "NXDOMAIN", "REFUSED", "NOTIMP", "FORMERR",
    }
    assert any(m.nsid for m in answered)
    assert any(m.edns_payload for m in answered)
    assert any(len(m.authorities) == 10 and not m.authoritative for m in answered)
    assert any(len(m.answers) > 20 for m in answered)  # AXFR


def test_corpus_bytes_are_pinned():
    assert corpus_digest() == CORPUS_SHA256
