"""Tests for repro.dns.rdata."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.errors import WireFormatError
from repro.dns.name import Name
from repro.dns.rdata import (
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    SOA,
    SRV,
    TXT,
    A,
    GenericRdata,
    parse_rdata,
    rdata_from_text,
)
from repro.dns.types import RRType

ORIGIN = Name.from_text("example.nl.")


def roundtrip(rdata):
    wire = rdata.to_wire()
    return parse_rdata(int(rdata.rrtype), wire, 0, len(wire))


class TestA:
    def test_roundtrip(self):
        assert roundtrip(A("192.0.2.1")) == A("192.0.2.1")

    def test_wire_is_4_bytes(self):
        assert A("192.0.2.1").to_wire() == b"\xc0\x00\x02\x01"

    def test_bad_length_rejected(self):
        with pytest.raises(WireFormatError):
            A.from_wire(b"\x01\x02\x03", 0, 3)

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError):
            A("999.0.0.1")

    def test_from_text(self):
        assert rdata_from_text(RRType.A, ["192.0.2.7"], ORIGIN) == A("192.0.2.7")


class TestAAAA:
    def test_roundtrip(self):
        assert roundtrip(AAAA("2001:db8::1")) == AAAA("2001:db8::1")

    def test_wire_is_16_bytes(self):
        assert len(AAAA("2001:db8::1").to_wire()) == 16

    def test_bad_length_rejected(self):
        with pytest.raises(WireFormatError):
            AAAA.from_wire(b"\x00" * 15, 0, 15)


class TestNameBased:
    @pytest.mark.parametrize("cls", [NS, CNAME, PTR])
    def test_roundtrip(self, cls):
        rdata = cls(Name.from_text("ns1.example.nl."))
        assert roundtrip(rdata) == rdata

    def test_ns_relative_name_from_text(self):
        rdata = rdata_from_text(RRType.NS, ["ns1"], ORIGIN)
        assert rdata == NS(Name.from_text("ns1.example.nl."))

    def test_ns_absolute_name_from_text(self):
        rdata = rdata_from_text(RRType.NS, ["ns1.other.net."], ORIGIN)
        assert rdata == NS(Name.from_text("ns1.other.net."))

    def test_at_token_means_origin(self):
        assert rdata_from_text(RRType.CNAME, ["@"], ORIGIN) == CNAME(ORIGIN)


class TestMX:
    def test_roundtrip(self):
        rdata = MX(10, Name.from_text("mail.example.nl."))
        assert roundtrip(rdata) == rdata

    def test_text(self):
        assert MX(10, Name.from_text("mail.nl.")).to_text() == "10 mail.nl."

    def test_too_short(self):
        with pytest.raises(WireFormatError):
            MX.from_wire(b"\x00", 0, 1)


class TestTXT:
    def test_roundtrip_single(self):
        assert roundtrip(TXT((b"site-FRA",))) == TXT((b"site-FRA",))

    def test_roundtrip_multiple_strings(self):
        rdata = TXT((b"one", b"two"))
        assert roundtrip(rdata) == rdata

    def test_from_value_splits_at_255(self):
        rdata = TXT.from_value("x" * 600)
        assert [len(s) for s in rdata.strings] == [255, 255, 90]
        assert rdata.value == "x" * 600

    def test_empty_rejected(self):
        with pytest.raises(WireFormatError):
            TXT(())

    def test_overlong_string_rejected(self):
        with pytest.raises(WireFormatError):
            TXT((b"x" * 256,))

    def test_to_text_quotes(self):
        assert TXT((b"a b",)).to_text() == '"a b"'

    def test_from_text_strips_quotes(self):
        assert rdata_from_text(RRType.TXT, ['"a b"'], ORIGIN) == TXT((b"a b",))

    @given(st.lists(st.binary(min_size=0, max_size=255), min_size=1, max_size=4))
    def test_wire_roundtrip_property(self, strings):
        rdata = TXT(tuple(strings))
        assert roundtrip(rdata) == rdata


class TestSOA:
    def test_roundtrip(self):
        rdata = SOA(
            Name.from_text("ns1.example.nl."),
            Name.from_text("hostmaster.example.nl."),
            2017041201,
            3600,
            600,
            86400,
            5,
        )
        assert roundtrip(rdata) == rdata

    def test_from_text_field_count(self):
        with pytest.raises(WireFormatError):
            SOA.from_text(["ns1", "host", "1", "2", "3"], ORIGIN)

    def test_text_format(self):
        rdata = SOA(
            Name.from_text("ns1.nl."), Name.from_text("h.nl."), 1, 2, 3, 4, 5
        )
        assert rdata.to_text() == "ns1.nl. h.nl. 1 2 3 4 5"


class TestSRV:
    def test_roundtrip(self):
        rdata = SRV(0, 5, 53, Name.from_text("ns.example.nl."))
        assert roundtrip(rdata) == rdata

    def test_target_not_compressed(self):
        # RFC 2782: SRV targets are never compressed, even with a map.
        # The map is opaque: fill it the way an encoder does, by emitting
        # the target once, and check that it would have matched.
        target = Name.from_text("ns.example.nl.")
        compress = {}
        target.to_wire(compress, 2)
        assert target.to_wire(compress, 100) == b"\xc0\x02"
        wire = SRV(0, 5, 53, target).to_wire(compress, 100)
        assert wire[6:] == target.to_wire()


class TestGeneric:
    def test_unknown_type_roundtrips_raw(self):
        rdata = parse_rdata(9999, b"\xde\xad\xbe\xef", 0, 4)
        assert isinstance(rdata, GenericRdata)
        assert rdata.data == b"\xde\xad\xbe\xef"
        assert rdata.to_wire() == b"\xde\xad\xbe\xef"

    def test_rfc3597_text(self):
        rdata = GenericRdata(9999, b"\x01\x02")
        assert rdata.to_text() == "\\# 2 0102"


class TestCAA:
    def test_roundtrip(self):
        from repro.dns.rdata import CAA

        rdata = CAA(0, "issue", "letsencrypt.org")
        assert roundtrip(rdata) == rdata

    def test_critical_flag(self):
        from repro.dns.rdata import CAA

        rdata = CAA(128, "issuewild", ";")
        assert roundtrip(rdata) == rdata

    def test_text_format(self):
        from repro.dns.rdata import CAA

        assert CAA(0, "issue", "ca.example").to_text() == '0 issue "ca.example"'

    def test_from_text(self):
        from repro.dns.rdata import CAA

        rdata = rdata_from_text(RRType.CAA, ["0", "issue", '"ca.example"'], ORIGIN)
        assert rdata == CAA(0, "issue", "ca.example")

    def test_bad_flags_rejected(self):
        from repro.dns.rdata import CAA

        with pytest.raises(WireFormatError):
            CAA(300, "issue", "x")

    def test_bad_tag_rejected(self):
        from repro.dns.rdata import CAA

        with pytest.raises(WireFormatError):
            CAA(0, "", "x")

    def test_zone_file_usage(self):
        from repro.dns.rdata import CAA
        from repro.dns.zonefile import parse_zone_text

        zone = parse_zone_text(
            '$TTL 60\n@ IN CAA 0 issue "ca.example.net"\n', "example.nl."
        )
        rrset = zone.get_rrset(Name.from_text("example.nl."), RRType.CAA)
        assert rrset.rdatas == [CAA(0, "issue", "ca.example.net")]
