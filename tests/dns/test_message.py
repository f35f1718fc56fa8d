"""Tests for repro.dns.message."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.errors import TruncatedMessageError, WireFormatError
from repro.dns.message import Message, Question
from repro.dns.name import Name
from repro.dns.rdata import NS, TXT, A
from repro.dns.records import ResourceRecord
from repro.dns.types import Opcode, Rcode, RRClass, RRType

QNAME = Name.from_text("probe.ourtestdomain.nl.")


def make_response_with_answers(n=1):
    query = Message.make_query(QNAME, RRType.TXT, msg_id=42)
    response = query.make_response()
    for i in range(n):
        response.answers.append(
            ResourceRecord(QNAME, RRType.TXT, RRClass.IN, 5, TXT.from_value(f"s{i}"))
        )
    return response


class TestQuery:
    def test_make_query_defaults(self):
        query = Message.make_query("example.nl.", RRType.A, msg_id=7)
        assert query.msg_id == 7
        assert not query.is_response
        assert query.recursion_desired
        assert query.question == Question(Name.from_text("example.nl."), RRType.A)

    def test_make_query_no_rd(self):
        query = Message.make_query("example.nl.", RRType.A, recursion_desired=False)
        assert not query.recursion_desired

    def test_question_property_requires_exactly_one(self):
        message = Message()
        with pytest.raises(WireFormatError):
            _ = message.question


class TestResponse:
    def test_make_response_copies_id_and_question(self):
        query = Message.make_query(QNAME, RRType.TXT, msg_id=99)
        response = query.make_response()
        assert response.msg_id == 99
        assert response.is_response
        assert response.questions == query.questions
        assert response.recursion_desired == query.recursion_desired

    def test_flags_independent(self):
        message = Message()
        message.authoritative = True
        message.recursion_available = True
        assert message.authoritative and message.recursion_available
        message.authoritative = False
        assert not message.authoritative and message.recursion_available


class TestWire:
    def test_roundtrip_query(self):
        query = Message.make_query(QNAME, RRType.TXT, msg_id=4242)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.msg_id == 4242
        assert decoded.question == query.question
        assert decoded.recursion_desired
        assert not decoded.is_response

    def test_roundtrip_response_sections(self):
        response = make_response_with_answers(2)
        response.authorities.append(
            ResourceRecord(
                Name.from_text("ourtestdomain.nl."),
                RRType.NS,
                RRClass.IN,
                3600,
                NS(Name.from_text("ns1.ourtestdomain.nl.")),
            )
        )
        response.additionals.append(
            ResourceRecord(
                Name.from_text("ns1.ourtestdomain.nl."),
                RRType.A,
                RRClass.IN,
                3600,
                A("192.0.2.1"),
            )
        )
        decoded = Message.from_wire(response.to_wire())
        assert len(decoded.answers) == 2
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1
        assert decoded.authorities[0].rdata == NS(Name.from_text("ns1.ourtestdomain.nl."))

    def test_compression_shrinks_message(self):
        response = make_response_with_answers(3)
        wire = response.to_wire()
        # The QNAME appears 4 times (question + 3 answers); compression
        # must make the encoding much smaller than 4 full copies.
        uncompressed_name = QNAME.wire_length()
        assert len(wire) < 12 + 4 * uncompressed_name + 3 * 20

    def test_opcode_rcode_roundtrip(self):
        message = Message(msg_id=1, opcode=Opcode.NOTIFY, rcode=Rcode.REFUSED)
        decoded = Message.from_wire(message.to_wire())
        assert decoded.opcode == Opcode.NOTIFY
        assert decoded.rcode == Rcode.REFUSED

    def test_truncation_sets_tc_and_drops_answers(self):
        response = make_response_with_answers(40)
        wire = response.to_wire(max_size=512)
        assert len(wire) <= 512
        decoded = Message.from_wire(wire)
        assert decoded.truncated
        assert decoded.answers == []
        assert decoded.questions == response.questions

    def test_no_truncation_when_it_fits(self):
        response = make_response_with_answers(1)
        decoded = Message.from_wire(response.to_wire(max_size=512))
        assert not decoded.truncated
        assert len(decoded.answers) == 1

    def test_short_message_rejected(self):
        with pytest.raises(TruncatedMessageError):
            Message.from_wire(b"\x00\x01\x02")

    def test_garbage_counts_rejected(self):
        query = Message.make_query(QNAME, RRType.TXT)
        wire = bytearray(query.to_wire())
        wire[4:6] = b"\x00\x09"  # claim 9 questions
        with pytest.raises(TruncatedMessageError):
            Message.from_wire(bytes(wire))

    def test_truncated_record_header_rejected(self):
        wire = make_response_with_answers(1).to_wire()
        question_end = 12 + len(QNAME.to_wire()) + 4
        with pytest.raises(TruncatedMessageError, match="record header"):
            Message.from_wire(wire[: question_end + 2 + 6])

    def test_truncated_rdata_rejected(self):
        wire = make_response_with_answers(1).to_wire()
        with pytest.raises(TruncatedMessageError, match="rdata truncated"):
            Message.from_wire(wire[:-1])

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_msg_id_roundtrip(self, msg_id):
        query = Message.make_query(QNAME, RRType.TXT, msg_id=msg_id)
        assert Message.from_wire(query.to_wire()).msg_id == msg_id


class TestText:
    def test_to_text_mentions_sections(self):
        response = make_response_with_answers(1)
        text = response.to_text()
        assert "QUESTION" in text
        assert "ANSWER" in text
        assert "probe.ourtestdomain.nl." in text


class TestQueryShapeDecode:
    """One question and at most one additional decode without building
    the OPT record; everything else about the result is the same."""

    def test_edns_query_absorbs_the_opt(self):
        query = Message.make_query(QNAME, RRType.TXT, msg_id=3).use_edns(1232)
        query.edns_options.append((10, b"\x01\x02"))
        query.request_nsid()
        decoded = Message.from_wire(query.to_wire())
        assert decoded.edns_payload == 1232
        assert decoded.edns_options == [(10, b"\x01\x02"), (Message.EDNS_NSID, b"")]
        assert decoded.additionals == []
        assert decoded.questions == query.questions
        assert decoded.to_wire() == query.to_wire()

    def test_question_name_keeps_its_wire(self):
        wire = Message.make_query("WWW.Example.NL.", RRType.A).to_wire()
        name = Message.from_wire(wire).questions[0].name
        assert name._wire == wire[12:-4]  # kept from the decode, not re-rendered
        assert name.to_wire() is name._wire

    def test_root_owned_non_opt_additional_stays_a_record(self):
        query = Message.make_query(QNAME, RRType.TXT, msg_id=4)
        extra = ResourceRecord(Name(()), RRType.TXT, RRClass.IN, 0, TXT.from_value("x"))
        query.additionals.append(extra)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.additionals == [extra]
        assert decoded.edns_payload is None

    def test_truncated_question_tail_rejected(self):
        one = Message.make_query(QNAME, RRType.TXT)
        two = Message.make_query(QNAME, RRType.TXT)
        two.questions.append(Question(QNAME, RRType.A))  # the general path
        for query in (one, two):
            with pytest.raises(TruncatedMessageError, match="question truncated"):
                Message.from_wire(query.to_wire()[:-2])

    def test_truncated_opt_rdata_rejected(self):
        query = Message.make_query(QNAME, RRType.TXT).request_nsid()
        with pytest.raises(TruncatedMessageError):
            Message.from_wire(query.to_wire()[:-1])

    def test_malformed_option_list_rejected(self):
        query = Message.make_query(QNAME, RRType.TXT).use_edns(4096)
        query.edns_options.append((10, b"abc"))
        wire = bytearray(query.to_wire())
        wire[-5] = 9  # option length now runs past the OPT rdata
        with pytest.raises(WireFormatError):
            Message.from_wire(bytes(wire))

    def test_query_without_edns_has_no_options(self):
        decoded = Message.from_wire(Message.make_query(QNAME, RRType.A).to_wire())
        assert decoded.edns_payload is None and decoded.edns_options == []
