"""Differential tests pinning the codec fast path to the reference encoding.

The encoder was rewritten around ``wire_into`` (one shared bytearray,
flyweight names, precompiled structs).  These tests re-encode the same
messages with the old per-record ``to_wire`` concatenation strategy and
require byte-for-byte equality, over seeded random messages that cover
escapes, maximum-length labels, shared-suffix compression, and EDNS
options.  Decode hardening (pointer loops, forward pointers) is pinned
too.
"""

import random

import pytest

from repro.dns.errors import (
    BadPointerError,
    CompressionLoopError,
    NameError_,
)
from repro.dns.message import HEADER_STRUCT, Message, Question
from repro.dns.name import MAX_NAME_LENGTH, ROOT, Name
from repro.dns.rdata import (
    AAAA,
    CNAME,
    MX,
    NS,
    OPT,
    SOA,
    SRV,
    TXT,
    A,
    GenericRdata,
)
from repro.dns.records import ResourceRecord
from repro.dns.types import FLAG_AA, FLAG_QR, FLAG_RD, Rcode, RRClass, RRType

SEED = 20170412


def _reference_compress_into(self, out, compress, base):
    """``Name._compress_into`` as it was when the map was keyed on
    ``Name`` objects: one fresh name per suffix, hashed and compared
    through ``Name.__hash__`` / ``__eq__``.  Test-owned, so the encoder
    under test and its reference share no compression code."""
    labels = self._labels
    folded = self._folded
    start = len(out)
    for i in range(len(labels)):
        suffix = (
            self
            if i == 0
            else Name._from_validated(labels[i:], folded[i:])
        )
        target = compress.get(suffix)
        if target is not None and target < 0x4000:
            out.append(0xC0 | (target >> 8))
            out.append(target & 0xFF)
            return
        position = base + (len(out) - start)
        if position < 0x4000:
            compress[suffix] = position
        label = labels[i]
        out.append(len(label))
        out += label
    out.append(0)


def reference_encode(message: Message) -> bytes:
    """The pre-fast-path encoding strategy: per-record bytes, concatenated.

    This mirrors the original ``Message._encode`` exactly: one compress
    dict shared across sections, every item rendered by its own
    ``to_wire(compress, offset)`` and appended — with every name in
    every rdata compressed by :func:`_reference_compress_into`.
    """
    opt = None
    if message.edns_payload is not None:
        # The OPT pseudo-record as a plain record: root owner, CLASS =
        # payload size, TTL 0, the options as rdata (RFC 6891 §6.1.2).
        opt = ResourceRecord(
            ROOT, RRType.OPT, message.edns_payload, 0,
            OPT.encode_options(message.edns_options),
        )
    wire = bytearray(
        HEADER_STRUCT.pack(
            message.msg_id,
            message._header_flags(),
            len(message.questions),
            len(message.answers),
            len(message.authorities),
            len(message.additionals) + (1 if opt is not None else 0),
        )
    )
    compress: dict[Name, int] = {}
    live = Name._compress_into
    Name._compress_into = _reference_compress_into
    try:
        for question in message.questions:
            wire += question.to_wire(compress, len(wire))
        for section in (message.answers, message.authorities, message.additionals):
            for record in section:
                wire += record.to_wire(compress, len(wire))
        if opt is not None:
            wire += opt.to_wire(compress, len(wire))
    finally:
        Name._compress_into = live
    return bytes(wire)


def _random_label(rng: random.Random) -> bytes:
    kind = rng.random()
    if kind < 0.1:
        # maximum-length label
        return bytes(rng.randrange(ord("a"), ord("z") + 1) for _ in range(63))
    if kind < 0.25:
        # bytes needing presentation escapes: dots, backslashes, controls
        return bytes(
            rng.choice([ord("."), ord("\\"), 0x00, 0xFF, ord("A"), ord("z")])
            for _ in range(rng.randint(1, 6))
        )
    length = rng.randint(1, 12)
    alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
    return bytes(rng.choice(alphabet) for _ in range(length))


def _random_name(rng: random.Random, suffixes: list[Name]) -> Name:
    base = rng.choice(suffixes) if suffixes and rng.random() < 0.7 else Name(())
    name = base
    for _ in range(rng.randint(0, 3)):
        label = _random_label(rng)
        if name.wire_length() + len(label) + 1 > MAX_NAME_LENGTH:
            break
        name = name.child(label)
    return name


def _random_rdata(rng: random.Random, suffixes: list[Name]):
    choice = rng.randrange(8)
    if choice == 0:
        return RRType.A, A(f"192.0.2.{rng.randrange(256)}")
    if choice == 1:
        return RRType.AAAA, AAAA(f"2001:db8::{rng.randrange(1, 0xFFFF):x}")
    if choice == 2:
        return RRType.TXT, TXT.from_value("x" * rng.randint(0, 40))
    if choice == 3:
        return RRType.NS, NS(_random_name(rng, suffixes))
    if choice == 4:
        return RRType.CNAME, CNAME(_random_name(rng, suffixes))
    if choice == 5:
        return RRType.MX, MX(rng.randrange(100), _random_name(rng, suffixes))
    if choice == 6:
        return RRType.SOA, SOA(
            _random_name(rng, suffixes),
            _random_name(rng, suffixes),
            rng.randrange(1 << 31),
            3600,
            900,
            86400,
            300,
        )
    return RRType.SRV, SRV(
        rng.randrange(100), rng.randrange(100), rng.randrange(65536),
        _random_name(rng, suffixes),
    )


def _random_message(rng: random.Random) -> Message:
    # A shared suffix pool makes compression pointers frequent.
    suffixes = [
        Name.from_text("example.org."),
        Name.from_text("probe.example.org."),
        Name.from_text("EXAMPLE.Org."),  # case variant: folds equal
        Name.from_text("a.very.deep.suffix.example.net."),
    ]
    message = Message(
        msg_id=rng.randrange(1 << 16),
        flags=rng.choice([0, FLAG_QR, FLAG_QR | FLAG_AA, FLAG_RD]),
        rcode=rng.choice([Rcode.NOERROR, Rcode.NXDOMAIN]),
    )
    for _ in range(rng.randint(1, 2)):
        message.questions.append(
            Question(_random_name(rng, suffixes), RRType.TXT, RRClass.IN)
        )
    for section in (message.answers, message.authorities, message.additionals):
        for _ in range(rng.randint(0, 4)):
            owner = _random_name(rng, suffixes)
            rrtype, rdata = _random_rdata(rng, suffixes)
            section.append(
                ResourceRecord(owner, rrtype, RRClass.IN, rng.randrange(3600), rdata)
            )
    if rng.random() < 0.4:
        message.use_edns(rng.choice([512, 1232, 4096]))
        if rng.random() < 0.5:
            message.edns_options.append((Message.EDNS_NSID, b""))
        if rng.random() < 0.3:
            message.edns_options.append((10, bytes(rng.randrange(256) for _ in range(8))))
    return message


def test_encoder_matches_reference_on_random_messages():
    rng = random.Random(SEED)
    for _ in range(300):
        message = _random_message(rng)
        assert message.to_wire() == reference_encode(message)


def test_mixed_case_suffix_compresses_against_lower_case():
    """Compression matches case-insensitively and keeps the first spelling."""
    message = Message.make_query("www.example.nl.", RRType.A, msg_id=1)
    message.is_response = True
    message.answers.append(
        ResourceRecord(
            Name.from_text("WWW.Example.NL."), RRType.CNAME, RRClass.IN, 60,
            CNAME(Name.from_text("Host.EXAMPLE.nl.")),
        )
    )
    message.authorities.append(
        ResourceRecord(
            Name.from_text("eXaMpLe.nl."), RRType.NS, RRClass.IN, 60,
            NS(Name.from_text("NS.host.example.NL.")),
        )
    )
    wire = message.to_wire()
    assert wire == reference_encode(message)
    question_end = 12 + len(Name.from_text("www.example.nl.").to_wire()) + 4
    assert wire[question_end : question_end + 2] == b"\xc0\x0c"  # owner -> question
    # Only the question spells the shared suffix out, in its own case.
    assert wire.lower().count(b"\x07example\x02nl") == 1
    assert b"\x07example\x02nl" in wire
    decoded = Message.from_wire(wire)
    assert decoded.answers[0].rdata.target == Name.from_text("host.example.nl.")
    assert decoded.authorities[0].rdata.target.labels[0] == b"NS"
    assert decoded.authorities[0].name == Name.from_text("example.nl.")


def _message_with_name_at(start: int, names) -> Message:
    """A response whose second answer's owner name begins at ``start``."""
    message = Message.make_query("q.test.", RRType.TXT, msg_id=2)
    message.is_response = True
    # question (8 + 4) + padding record (pointer owner 2 + fixed 10 + rdata)
    padding = start - (12 + 12 + 12)
    message.answers.append(
        ResourceRecord(
            Name.from_text("q.test."), RRType.TXT, RRClass.IN, 0,
            GenericRdata(16, b"\x00" * padding),
        )
    )
    for name in names:
        message.answers.append(
            ResourceRecord(name, RRType.A, RRClass.IN, 0, A("192.0.2.1"))
        )
    return message


def test_name_straddling_the_pointer_limit_registers_only_reachable_suffixes():
    """Offsets >= 0x4000 do not fit a 14-bit pointer: suffixes emitted
    there are spelled out again, suffixes just below are pointed at."""
    straddler = Name.from_text("aaaa.bbbb.cccc.dddd.straddle.example.")
    cccc = straddler.parent().parent()
    dddd = cccc.parent()
    names = (straddler, straddler, cccc, dddd, dddd)
    for start in range(0x3FD0, 0x4008):
        message = _message_with_name_at(start, names)
        wire = message.to_wire()
        assert wire.index(b"\x04aaaa") == start
        assert wire == reference_encode(message), hex(start)
        assert Message.from_wire(wire).answers[1:] == message.answers[1:], hex(start)
    # aaaa @3FF4, bbbb @3FF9, cccc @3FFE are reachable; dddd @4003 is not.
    wire = _message_with_name_at(0x3FF4, names).to_wire()
    assert wire.count(b"\x04aaaa") == 1 and wire.count(b"\x04cccc") == 1
    assert wire.count(b"\xff\xf4\x00\x01") == 1  # second copy -> pointer 0x3FF4
    assert wire.count(b"\xff\xfe\x00\x01") == 1  # cccc... -> pointer 0x3FFE
    assert wire.count(b"\x04dddd\x08straddle\x07example\x00") == 3


def test_decode_reencode_is_stable_on_random_messages():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        original = _random_message(rng)
        wire = original.to_wire()
        decoded = Message.from_wire(wire)
        assert decoded.to_wire() == wire


def test_truncation_matches_rebuilt_message():
    """The truncation splice must equal a from-scratch truncated message."""
    rng = random.Random(SEED + 2)
    for _ in range(50):
        message = _random_message(rng)
        message.answers.append(
            ResourceRecord(
                Name.from_text("big.example.org."),
                RRType.TXT,
                RRClass.IN,
                60,
                TXT.from_value("y" * 200),
            )
        )
        # Reference: what the old implementation produced — a second
        # Message holding only the questions, TC set, EDNS copied — and
        # that without its questions when they alone do not fit.
        rebuilt = Message(
            msg_id=message.msg_id,
            flags=message.flags,
            opcode=message.opcode,
            rcode=message.rcode,
        )
        rebuilt.questions = list(message.questions)
        rebuilt.truncated = True
        rebuilt.edns_payload = message.edns_payload
        rebuilt.edns_options = list(message.edns_options)
        expected = reference_encode(rebuilt)
        if len(expected) > 100:
            rebuilt.questions = []
            expected = reference_encode(rebuilt)
        assert message.to_wire(max_size=100) == expected


def test_compressed_suffixes_decode_to_shared_names():
    """The per-message decode memo reuses Name objects across records."""
    owner = Name.from_text("host.example.org.")
    message = Message(msg_id=9, flags=FLAG_QR)
    message.questions.append(Question(owner, RRType.A, RRClass.IN))
    message.answers.append(
        ResourceRecord(owner, RRType.A, RRClass.IN, 60, A("192.0.2.1"))
    )
    message.answers.append(
        ResourceRecord(owner, RRType.A, RRClass.IN, 60, A("192.0.2.2"))
    )
    decoded = Message.from_wire(message.to_wire())
    assert decoded.questions[0].name == owner
    # Both answer owners compress to the same pointer, so the memo must
    # hand back the identical object.
    assert decoded.answers[0].name is decoded.answers[1].name


def test_forward_pointer_rejected():
    wire = bytes(12) + b"\xc0\x20"  # pointer to offset 32 from offset 12
    with pytest.raises(BadPointerError):
        Name.from_wire(wire, 12)


def test_self_pointer_rejected():
    wire = bytes(12) + b"\xc0\x0c"  # pointer at 12 targeting 12
    with pytest.raises(BadPointerError):
        Name.from_wire(wire, 12)


def test_pointer_loop_rejected():
    # label "a" at 12, then a pointer back to 12: a backward pointer
    # whose expansion revisits itself.
    wire = bytes(12) + b"\x01a\xc0\x0c"
    with pytest.raises(CompressionLoopError):
        Name.from_wire(wire, 14)


def test_pointer_chain_name_length_enforced():
    # Chain backward pointers over long labels until the assembled name
    # would exceed 255 bytes; decode must reject, not build it.
    chunk = b"\x3f" + b"a" * 63
    wire = bytearray()
    wire += chunk + b"\x00"  # offset 0: one 63-byte label, then root
    offsets = [0]
    for _ in range(4):
        offsets.append(len(wire))
        wire += chunk + bytes([0xC0 | (offsets[-2] >> 8), offsets[-2] & 0xFF])
    with pytest.raises(NameError_):
        Name.from_wire(bytes(wire), offsets[-1])


def test_flyweight_slices_equal_validated_names():
    name = Name.from_text("a.b.c.example.org.")
    assert name.parent() == Name.from_text("b.c.example.org.")
    assert name.parent().to_wire() == Name.from_text("b.c.example.org.").to_wire()
    assert name.child(b"x") == Name.from_text("x.a.b.c.example.org.")
    left = Name.from_text("www.")
    assert left.concatenate(name) == Name.from_text("www.a.b.c.example.org.")
    # cached wire form matches a freshly built instance's encoding
    again = Name(tuple(name.labels))
    assert name.to_wire() == again.to_wire()
    assert hash(name) == hash(again)


# -- ResponseDecodeMemo shared across resolvers ------------------------------


def _templated_response(label: bytes, marker: str, msg_id: int = 7) -> tuple[bytes, Name]:
    """A server-template-shaped response: answer owned by the question name."""
    qname = Name.from_text("probe.example.org.").child(label)
    message = Message(msg_id=msg_id, flags=FLAG_QR | FLAG_AA)
    message.questions.append(Question(qname, RRType.TXT, RRClass.IN))
    message.answers.append(
        ResourceRecord(qname, RRType.TXT, RRClass.IN, 5, TXT.from_value(marker))
    )
    message.authorities.append(
        ResourceRecord(
            Name.from_text("example.org."), RRType.NS, RRClass.IN, 3600,
            NS(Name.from_text("ns1.example.org.")),
        )
    )
    message.additionals.append(
        ResourceRecord(
            Name.from_text("ns1.example.org."), RRType.A, RRClass.IN, 3600,
            A("192.0.2.53"),
        )
    )
    return message.to_wire(), qname


def test_memo_at_capacity_still_decodes_new_shapes_and_keeps_old_hits(monkeypatch):
    from repro.dns.message import ResponseDecodeMemo

    memo = ResponseDecodeMemo()
    for shape in range(ResponseDecodeMemo.MAX_ENTRIES):
        wire, qname = _templated_response(b"warm", f"site-{shape}")
        memo.decode(wire, qname)
    assert len(memo._entries) == ResponseDecodeMemo.MAX_ENTRIES

    full_decodes = []
    from_wire = Message.from_wire
    monkeypatch.setattr(
        Message, "from_wire",
        staticmethod(lambda wire, *rest: full_decodes.append(wire) or from_wire(wire, *rest)),
    )
    # A shape past the cap takes the full decode, every time, correctly.
    for label in (b"new1", b"new2"):
        wire, qname = _templated_response(label, "site-over-the-cap")
        assert memo.decode(wire, qname) == from_wire(wire)
    assert len(full_decodes) == 2
    assert len(memo._entries) == ResponseDecodeMemo.MAX_ENTRIES
    # Shapes certified before the cap still hit: no full decode, same fields.
    del full_decodes[:]
    for shape in (0, 100, ResponseDecodeMemo.MAX_ENTRIES - 1):
        wire, qname = _templated_response(b"hit!", f"site-{shape}", msg_id=shape)
        assert memo.decode(wire, qname) == from_wire(wire)
    assert full_decodes == []


def test_memo_keeps_first_labels_of_different_lengths_apart():
    """An answer owned by the question name points at offset 12 whatever
    the first label's length, so two such responses can agree on every
    byte but the id and the first label — and still differ in where the
    label ends.  They must never share an entry."""
    from repro.dns.message import ResponseDecodeMemo

    def response(label: bytes) -> tuple[bytes, Name]:
        qname = Name.from_text("probe.example.org.").child(label)
        message = Message(msg_id=len(label), flags=FLAG_QR | FLAG_AA)
        message.questions.append(Question(qname, RRType.TXT, RRClass.IN))
        message.answers.append(
            ResourceRecord(qname, RRType.TXT, RRClass.IN, 5, TXT.from_value("s"))
        )
        return message.to_wire(), qname

    (short, short_name), (long, long_name) = response(b"ab"), response(b"abcd")
    assert short[2:12] == long[2:12] and short[15:] == long[17:]
    memo = ResponseDecodeMemo()
    for wire, qname in [(short, short_name), (long, long_name)] * 2:
        assert memo.decode(wire, qname) == Message.from_wire(wire)
    assert len(memo._entries) == 2


def test_memo_hands_out_only_frozen_hashable_records():
    """One memo serves every resolver on a network, and a hit reuses the
    decoded records of the wire that built the entry: nothing handed out
    may be mutable, or one resolver could edit another's answers."""
    import dataclasses

    from repro.dns.message import ResponseDecodeMemo
    from repro.dns.rdata import Rdata

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in (ResourceRecord, Question, *subclasses(Rdata)):
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls

    memo = ResponseDecodeMemo()
    first, qname = _templated_response(b"aaaa", "site-FRA")
    memo.decode(first, qname)
    wire, qname = _templated_response(b"bbbb", "site-FRA", msg_id=9)
    message = memo.decode(wire, qname)
    records = message.answers + message.authorities + message.additionals
    assert len(records) == 3
    for item in (*message.questions, *records):
        hash(item)
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.name = Name.from_text("mutated.example.")
    for record in records:
        hash(record.rdata)
        field = dataclasses.fields(record.rdata)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record.rdata, field, None)
    # The per-decode containers are fresh: editing one result's section
    # list does not show up in the next hit.
    message.answers.clear()
    assert len(memo.decode(wire, qname).answers) == 1
