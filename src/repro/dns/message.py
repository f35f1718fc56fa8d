"""DNS messages: header, question, and the four record sections.

Encoding applies RFC 1035 name compression across the whole message;
decoding follows compression pointers and validates counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import TruncatedMessageError, WireFormatError
from .name import CompressionMap, Name
from .rdata import OPT
from .records import _RR_HEADER_STRUCT, ResourceRecord
from .types import (
    FLAG_AA,
    FLAG_AD,
    FLAG_CD,
    FLAG_QR,
    FLAG_RA,
    FLAG_RD,
    FLAG_TC,
    OPCODE_BY_CODE,
    RCODE_BY_CODE,
    RRCLASS_BY_CODE,
    RRTYPE_BY_CODE,
    Opcode,
    Rcode,
    RRClass,
    RRType,
)

HEADER_STRUCT = struct.Struct("!HHHHHH")
QUESTION_TAIL_STRUCT = struct.Struct("!HH")

#: header flag bits a decoded message keeps (opcode and rcode are fields)
_KEPT_FLAGS = FLAG_QR | FLAG_AA | FLAG_TC | FLAG_RD | FLAG_RA | FLAG_AD | FLAG_CD


@dataclass(frozen=True, init=False)
class Question:
    """One entry of the question section."""

    name: Name
    rrtype: RRType
    rrclass: RRClass = RRClass.IN

    def __init__(self, name: Name, rrtype: RRType, rrclass: RRClass = RRClass.IN):
        # Frozen, written like ResourceRecord.__init__: one decode per query.
        state = self.__dict__
        state["name"] = name
        state["rrtype"] = rrtype
        state["rrclass"] = rrclass

    def to_wire(self, compress: CompressionMap | None = None, offset: int = 0) -> bytes:
        return self.name.to_wire(compress, offset) + QUESTION_TAIL_STRUCT.pack(
            int(self.rrtype), int(self.rrclass)
        )

    def wire_into(
        self, out: bytearray, compress: CompressionMap | None = None
    ) -> None:
        """Append this question to a whole-message buffer (fast path)."""
        self.name.wire_into(out, compress)
        out += QUESTION_TAIL_STRUCT.pack(self.rrtype, self.rrclass)

    @classmethod
    def from_wire(
        cls, wire: bytes, offset: int, _memo: dict | None = None
    ) -> tuple["Question", int]:
        name, cursor = Name.from_wire(wire, offset, _memo)
        if cursor + 4 > len(wire):
            raise TruncatedMessageError("question truncated")
        type_code, class_code = QUESTION_TAIL_STRUCT.unpack_from(wire, cursor)
        rrtype = RRTYPE_BY_CODE.get(type_code, type_code)
        rrclass = RRCLASS_BY_CODE.get(class_code, class_code)
        return cls(name, rrtype, rrclass), cursor + 4

    def to_text(self) -> str:
        rrtype = self.rrtype.to_text() if isinstance(self.rrtype, RRType) else f"TYPE{self.rrtype}"
        return f"{self.name.to_text()} {RRClass(self.rrclass).to_text()} {rrtype}"


@dataclass(slots=True)
class Message:
    """A complete DNS message.

    EDNS0 (RFC 6891) is handled as message state, not as a literal
    record: ``edns_payload`` holds the advertised UDP payload size when
    the message carries an OPT pseudo-record (None otherwise).  The OPT
    record is synthesized on encode and absorbed on decode.
    """

    msg_id: int = 0
    flags: int = 0
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authorities: list[ResourceRecord] = field(default_factory=list)
    additionals: list[ResourceRecord] = field(default_factory=list)
    edns_payload: int | None = None
    #: EDNS options as (code, payload) pairs; NSID is code 3 (RFC 5001)
    edns_options: list[tuple[int, bytes]] = field(default_factory=list)

    EDNS_NSID = 3

    # -- flag helpers ---------------------------------------------------

    def _flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def _set_flag(self, mask: int, value: bool) -> None:
        if value:
            self.flags |= mask
        else:
            self.flags &= ~mask

    @property
    def is_response(self) -> bool:
        return self._flag(FLAG_QR)

    @is_response.setter
    def is_response(self, value: bool) -> None:
        self._set_flag(FLAG_QR, value)

    @property
    def authoritative(self) -> bool:
        return self._flag(FLAG_AA)

    @authoritative.setter
    def authoritative(self, value: bool) -> None:
        self._set_flag(FLAG_AA, value)

    @property
    def truncated(self) -> bool:
        return self._flag(FLAG_TC)

    @truncated.setter
    def truncated(self, value: bool) -> None:
        self._set_flag(FLAG_TC, value)

    @property
    def recursion_desired(self) -> bool:
        return self._flag(FLAG_RD)

    @recursion_desired.setter
    def recursion_desired(self, value: bool) -> None:
        self._set_flag(FLAG_RD, value)

    @property
    def recursion_available(self) -> bool:
        return self._flag(FLAG_RA)

    @recursion_available.setter
    def recursion_available(self, value: bool) -> None:
        self._set_flag(FLAG_RA, value)

    # -- construction helpers --------------------------------------------

    @classmethod
    def make_query(
        cls,
        name: Name | str,
        rrtype: RRType,
        rrclass: RRClass = RRClass.IN,
        msg_id: int = 0,
        recursion_desired: bool = True,
    ) -> "Message":
        if isinstance(name, str):
            name = Name.from_text(name)
        message = cls(msg_id=msg_id)
        message.questions.append(Question(name, rrtype, rrclass))
        message.recursion_desired = recursion_desired
        return message

    def use_edns(self, payload: int = 4096) -> "Message":
        """Attach an EDNS0 OPT advertising ``payload`` bytes; returns self."""
        if not 512 <= payload <= 65535:
            raise WireFormatError(f"EDNS payload {payload} out of range")
        self.edns_payload = payload
        return self

    def request_nsid(self) -> "Message":
        """Ask the server to identify itself via the NSID option."""
        if self.edns_payload is None:
            self.use_edns()
        if (self.EDNS_NSID, b"") not in self.edns_options:
            self.edns_options.append((self.EDNS_NSID, b""))
        return self

    @property
    def nsid(self) -> bytes | None:
        """The NSID payload of this message, if present."""
        for code, payload in self.edns_options:
            if code == self.EDNS_NSID:
                return payload
        return None

    def make_response(self) -> "Message":
        """Start a response to this query: copy id, question, RD, EDNS."""
        return Message(
            self.msg_id, FLAG_QR | (self.flags & FLAG_RD), self.opcode,
            Rcode.NOERROR, list(self.questions), [], [], [],
            self.edns_payload, [],
        )

    @property
    def question(self) -> Question:
        """The sole question; raises when the count is not exactly one."""
        if len(self.questions) != 1:
            raise WireFormatError(f"expected 1 question, have {len(self.questions)}")
        return self.questions[0]

    # -- wire format ------------------------------------------------------

    def to_wire(self, max_size: int | None = None) -> bytes:
        """Encode with name compression.

        When ``max_size`` is given and the message does not fit, the answer
        sections (and the questions, if even they do not fit) are dropped
        and the TC bit is set (UDP truncation).  The truncated form reuses
        the already-encoded header + question bytes instead of building
        and re-encoding a second :class:`Message`: questions are the first
        names emitted, so their encoding (and the compression state it
        implies) is identical in both renderings.
        """
        wire, question_end = self._encode()
        if max_size is not None and len(wire) > max_size:
            wire = self._truncated(wire[:question_end], len(self.questions))
            if len(wire) > max_size:
                wire = self._truncated(wire[:12], 0)
        return wire

    def _truncated(self, head: bytes, qdcount: int) -> bytes:
        """``head`` (header + ``qdcount`` questions), TC set, OPT only."""
        out = bytearray(head)
        arcount = 1 if self.edns_payload is not None else 0
        flags = self._header_flags() | FLAG_TC
        HEADER_STRUCT.pack_into(out, 0, self.msg_id, flags, qdcount, 0, 0, arcount)
        if arcount:
            self._opt_into(out)
        return bytes(out)

    def _opt_into(self, out: bytearray) -> None:
        """Append the OPT pseudo-record for this message's EDNS state.

        Its owner is the root name, which never consults or feeds the
        compression map; CLASS carries the payload size, TTL is zero.
        """
        options = OPT.pack_options(self.edns_options) if self.edns_options else b""
        out += b"\0"
        out += _RR_HEADER_STRUCT.pack(
            RRType.OPT, self.edns_payload, 0, len(options)
        )
        out += options

    def _header_flags(self) -> int:
        return (
            (self.flags & ~0x7800 & ~0x000F)
            | (self.opcode << 11)
            | (self.rcode & 0x000F)
        )

    def _encode(self) -> tuple[bytes, int]:
        """Render the full message; returns (wire, end-of-question offset).

        One shared bytearray is grown in place: names are compressed
        into it and each record appends its cached tail (see
        :meth:`ResourceRecord.wire_into`), the section lists are walked
        without building a combined list first, and the OPT record is
        written directly.
        """
        questions, answers = self.questions, self.answers
        authorities, additionals = self.authorities, self.additionals
        edns = self.edns_payload is not None
        out = bytearray(
            HEADER_STRUCT.pack(
                self.msg_id,
                self._header_flags(),
                len(questions),
                len(answers),
                len(authorities),
                len(additionals) + edns,
            )
        )
        if len(questions) == 1 and not (answers or authorities or additionals):
            # Query shape: the sole name can never compress, so skip the
            # dict and reuse the name's cached uncompressed wire.
            questions[0].wire_into(out, None)
            question_end = len(out)
        else:
            compress: CompressionMap = {}
            for question in questions:
                question.wire_into(out, compress)
            question_end = len(out)
            for record in answers:
                record.wire_into(out, compress)
            for record in authorities:
                record.wire_into(out, compress)
            for record in additionals:
                record.wire_into(out, compress)
        if edns:
            self._opt_into(out)
        return bytes(out), question_end

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        if len(wire) < HEADER_STRUCT.size:
            raise TruncatedMessageError("message shorter than header")
        msg_id, flags, qdcount, ancount, nscount, arcount = HEADER_STRUCT.unpack_from(wire)
        opcode = OPCODE_BY_CODE.get((flags >> 11) & 0xF)
        if opcode is None:
            opcode = Opcode((flags >> 11) & 0xF)  # raise as before
        rcode = RCODE_BY_CODE.get(flags & 0xF)
        if rcode is None:
            rcode = Rcode(flags & 0xF)  # raise as before
        flags &= _KEPT_FLAGS  # opcode and rcode live in fields
        if qdcount == 1 and not (ancount or nscount) and arcount <= 1:
            # Query shape: one question, at most one additional.  Nothing
            # can point back into a name decoded before the question, so
            # no pointer memo; an uncompressed question name keeps the
            # bytes it was read from as its wire form.
            name, cursor = Name.from_wire(wire, HEADER_STRUCT.size)
            if cursor + 4 > len(wire):
                raise TruncatedMessageError("question truncated")
            type_code, class_code = QUESTION_TAIL_STRUCT.unpack_from(wire, cursor)
            question = Question(
                name,
                RRTYPE_BY_CODE.get(type_code, type_code),
                RRCLASS_BY_CODE.get(class_code, class_code),
            )
            message = cls(
                msg_id, flags, opcode, rcode, [question], [], [], [], None, []
            )
            cursor += 4
            if not arcount:
                return message
            if wire[cursor : cursor + 1] == b"\0" and cursor + 11 <= len(wire):
                # A root-owned additional: if it is the OPT, absorb it
                # into EDNS state without building the record.
                type_code, payload, _ttl, rdlength = _RR_HEADER_STRUCT.unpack_from(
                    wire, cursor + 1
                )
                if type_code == RRType.OPT:
                    start = cursor + 11
                    if start + rdlength > len(wire):
                        raise TruncatedMessageError("rdata truncated")
                    message.edns_payload = payload
                    if rdlength:
                        message.edns_options = OPT.unpack_options(
                            wire[start : start + rdlength]
                        )
                    return message
            memo: dict[int, tuple[Name, int]] = {HEADER_STRUCT.size: (name, cursor - 4)}
        else:
            message = cls(msg_id, flags, opcode, rcode, [], [], [], [], None, [])
            cursor = HEADER_STRUCT.size
            # One decode memo per message: compression pointers back to an
            # already-decoded owner name reuse that Name (and its cached hash).
            memo = {}
            for _ in range(qdcount):
                question, cursor = Question.from_wire(wire, cursor, memo)
                message.questions.append(question)
            if not (ancount or nscount or arcount):
                return message  # no records: nothing left to decode
        for count, section in (
            (ancount, message.answers),
            (nscount, message.authorities),
            (arcount, message.additionals),
        ):
            for _ in range(count):
                record, cursor = ResourceRecord.from_wire(wire, cursor, memo)
                section.append(record)
        # Absorb the OPT pseudo-record into EDNS state (RFC 6891 §6.1.1).
        if any(record.rrtype == RRType.OPT for record in message.additionals):
            for record in list(message.additionals):
                if record.rrtype == RRType.OPT:
                    message.edns_payload = int(record.rrclass)
                    decode = getattr(record.rdata, "decode_options", None)
                    if decode is not None:
                        message.edns_options = decode()
                    message.additionals.remove(record)
        return message

    def to_text(self) -> str:
        lines = [
            f";; id {self.msg_id} opcode {self.opcode.name} rcode {self.rcode.to_text()}"
            f" flags{' qr' if self.is_response else ''}{' aa' if self.authoritative else ''}"
            f"{' tc' if self.truncated else ''}{' rd' if self.recursion_desired else ''}"
            f"{' ra' if self.recursion_available else ''}",
            ";; QUESTION",
            *(f";{q.to_text()}" for q in self.questions),
        ]
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)


class ResponseDecodeMemo:
    """Memoizes decoded responses that repeat a known template shape.

    Authoritatives built on the response-template cache answer every
    probe query with bytes that differ only in the message id and the
    unique first label of the echoed question name.  The memo keys a
    decoded skeleton on every *other* byte of the wire, as one bytes
    object — header flags and counts, the first label's length, the
    question suffix, and the entire post-question tail — and rebuilds a
    hit by copying the entries it keeps and rebuilding only those whose
    name is the caller's already-validated query name.

    Two wires with equal keys can only differ in the id bytes and the
    first label's content.  Any name whose decoding depends on an
    absolute offset shows that offset in the keyed bytes (pointers
    between tail names encode absolute targets, so a different label
    length can never alias a key), which pins the byte layout.  The one
    remaining hazard — a name decoded *through* the first label's
    content, e.g. a pointer into its interior — is ruled out per entry
    by a canary decode: the wire is re-decoded with a different label
    of the same length, and the entry is built only when the two
    decodes differ exactly in names equal to the query name.  Shapes
    that fail the canary (or embed the query name in rdata) fall back
    to a full decode forever.
    """

    __slots__ = ("_entries",)

    MAX_ENTRIES = 256

    def __init__(self) -> None:
        self._entries: dict[bytes, tuple | None] = {}

    def decode(self, wire: bytes, qname: Name) -> Message:
        """Decode ``wire``, which is expected to echo ``qname``.

        Byte-equivalent to :meth:`Message.from_wire` whenever the wire's
        question section echoes ``qname`` exactly; falls back to a full
        decode otherwise (or for shapes the canary cannot certify).
        """
        qwire = qname.to_wire()
        if len(wire) <= 12 + len(qwire) or not wire.startswith(qwire, 12):
            return Message.from_wire(wire)
        # One bytes key: header flags and counts, the first label's
        # length octet, then everything after the first label.
        key = wire[2:13] + wire[13 + qwire[0]:]
        entries = self._entries
        entry = entries.get(key, False)
        if entry is False:
            message = Message.from_wire(wire)
            if len(entries) < self.MAX_ENTRIES:
                entries[key] = self._build(wire, message, qname, qwire[0])
            return message
        if entry is None:
            return Message.from_wire(wire)
        flags, opcode, rcode, payload, options, plans = entry
        sections = []
        for items, swaps in plans:
            section = list(items)
            for index in swaps:
                item = items[index]
                # A record shares the kept entry's packed tail, so the
                # record cache stores it without packing it again.
                section[index] = (
                    Question(qname, item.rrtype, item.rrclass)
                    if type(item) is Question
                    else item._with_owner(qname)
                )
            sections.append(section)
        questions, answers, authorities, additionals = sections
        return Message(
            (wire[0] << 8) | wire[1], flags, opcode, rcode, questions,
            answers, authorities, additionals, payload, list(options),
        )

    @staticmethod
    def _build(
        wire: bytes, message: Message, qname: Name, first_len: int
    ) -> tuple | None:
        """Certify a template entry via a canary decode, or return None."""
        labels = qname.labels
        if first_len == 0:
            # Root query name: there is no first label to vary, so the
            # canary cannot certify anything.  Fall back forever.
            return None
        canary_label = b"z" * first_len
        if canary_label == labels[0]:
            canary_label = b"y" * first_len
        canary_wire = wire[:13] + canary_label + wire[13 + first_len :]
        try:
            canary = Message.from_wire(canary_wire)
        except Exception:
            return None
        if (
            message.flags != canary.flags
            or message.opcode != canary.opcode
            or message.rcode != canary.rcode
            or message.edns_payload != canary.edns_payload
            or message.edns_options != canary.edns_options
        ):
            return None
        canary_labels = (canary_label,) + labels[1:]

        def plan(real_section, canary_section, is_question):
            """(the decoded entries, indexes of those a hit rebuilds)."""
            if len(real_section) != len(canary_section):
                return None
            swaps = []
            for index, (a, b) in enumerate(zip(real_section, canary_section)):
                if a.rrtype != b.rrtype or a.rrclass != b.rrclass:
                    return None
                if not is_question and (a.ttl != b.ttl or a.rdata != b.rdata):
                    return None
                a_labels = a.name.labels
                if a_labels == b.name.labels:
                    # Name spelled in (or pointing into) the keyed bytes:
                    # constant across hits, reuse the decoded object.
                    continue
                if a_labels == labels and b.name.labels == canary_labels:
                    # Name tracks the question: swap in the live qname.
                    swaps.append(index)
                else:
                    return None
            return tuple(real_section), tuple(swaps)

        plans = []
        for real_section, canary_section, is_question in (
            (message.questions, canary.questions, True),
            (message.answers, canary.answers, False),
            (message.authorities, canary.authorities, False),
            (message.additionals, canary.additionals, False),
        ):
            section_plan = plan(real_section, canary_section, is_question)
            if section_plan is None:
                return None
            plans.append(section_plan)
        return (
            message.flags,
            message.opcode,
            message.rcode,
            message.edns_payload,
            tuple(message.edns_options),
            tuple(plans),
        )
