"""Tests for the master-file parser."""

import pytest

from repro.dns.errors import ZoneFileSyntaxError
from repro.dns.name import Name
from repro.dns.rdata import MX, NS, SOA, TXT, A
from repro.dns.types import RRType
from repro.dns.zonefile import parse_zone_text, zone_to_text

BASIC = """
$TTL 3600
@   IN SOA ns1 hostmaster ( 2017041201 7200 3600 1209600 300 )
@   IN NS  ns1
ns1 IN A   192.0.2.1
www 300 IN A 192.0.2.80
"""


class TestBasicParsing:
    def test_parses_all_records(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        assert zone.get_rrset(Name.from_text("example.nl."), RRType.SOA)
        assert zone.get_rrset(Name.from_text("example.nl."), RRType.NS)
        assert zone.get_rrset(Name.from_text("ns1.example.nl."), RRType.A)

    def test_soa_multiline_parens(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        soa = zone.soa.rdatas[0]
        assert isinstance(soa, SOA)
        assert soa.serial == 2017041201
        assert soa.minimum == 300

    def test_explicit_ttl_overrides_default(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        assert zone.get_rrset(Name.from_text("www.example.nl."), RRType.A).ttl == 300

    def test_default_ttl_applied(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        assert zone.get_rrset(Name.from_text("ns1.example.nl."), RRType.A).ttl == 3600

    def test_relative_names_resolved(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        ns = zone.get_rrset(Name.from_text("example.nl."), RRType.NS).rdatas[0]
        assert ns == NS(Name.from_text("ns1.example.nl."))


class TestSyntaxFeatures:
    def test_comments_ignored(self):
        zone = parse_zone_text(
            "$TTL 60\n; full comment line\n@ IN A 192.0.2.1 ; trailing\n",
            "example.nl.",
        )
        assert zone.get_rrset(Name.from_text("example.nl."), RRType.A)

    def test_owner_inheritance(self):
        text = "$TTL 60\nwww IN A 192.0.2.1\n    IN TXT \"also www\"\n"
        zone = parse_zone_text(text, "example.nl.")
        assert zone.get_rrset(Name.from_text("www.example.nl."), RRType.TXT)

    def test_origin_directive(self):
        text = "$TTL 60\n$ORIGIN sub.example.nl.\nhost IN A 192.0.2.2\n"
        zone = parse_zone_text(text, "example.nl.")
        assert zone.get_rrset(Name.from_text("host.sub.example.nl."), RRType.A)

    def test_ttl_units(self):
        text = "$TTL 1h\n@ IN A 192.0.2.1\nb 2d IN A 192.0.2.2\n"
        zone = parse_zone_text(text, "example.nl.")
        assert zone.get_rrset(Name.from_text("example.nl."), RRType.A).ttl == 3600
        assert zone.get_rrset(Name.from_text("b.example.nl."), RRType.A).ttl == 172800

    def test_quoted_txt_with_spaces(self):
        text = '$TTL 60\nt IN TXT "hello world"\n'
        zone = parse_zone_text(text, "example.nl.")
        rdata = zone.get_rrset(Name.from_text("t.example.nl."), RRType.TXT).rdatas[0]
        assert rdata == TXT((b"hello world",))

    def test_txt_with_semicolon_inside_quotes(self):
        text = '$TTL 60\nt IN TXT "a;b"\n'
        zone = parse_zone_text(text, "example.nl.")
        rdata = zone.get_rrset(Name.from_text("t.example.nl."), RRType.TXT).rdatas[0]
        assert rdata == TXT((b"a;b",))

    def test_class_and_ttl_any_order(self):
        text = "$TTL 60\na IN 120 A 192.0.2.1\nb 120 IN A 192.0.2.2\n"
        zone = parse_zone_text(text, "example.nl.")
        assert zone.get_rrset(Name.from_text("a.example.nl."), RRType.A).ttl == 120
        assert zone.get_rrset(Name.from_text("b.example.nl."), RRType.A).ttl == 120

    def test_mx_record(self):
        text = "$TTL 60\n@ IN MX 10 mail\n"
        zone = parse_zone_text(text, "example.nl.")
        rdata = zone.get_rrset(Name.from_text("example.nl."), RRType.MX).rdatas[0]
        assert rdata == MX(10, Name.from_text("mail.example.nl."))


class TestErrors:
    def test_unbalanced_parens(self):
        with pytest.raises(ZoneFileSyntaxError):
            parse_zone_text("$TTL 60\n@ IN SOA a b ( 1 2 3 4 5\n", "example.nl.")

    def test_unterminated_string(self):
        with pytest.raises(ZoneFileSyntaxError):
            parse_zone_text('$TTL 60\nt IN TXT "oops\n', "example.nl.")

    def test_unknown_type(self):
        with pytest.raises(ZoneFileSyntaxError):
            parse_zone_text("$TTL 60\n@ IN BOGUS data\n", "example.nl.")

    def test_missing_ttl_without_default(self):
        with pytest.raises(ZoneFileSyntaxError):
            parse_zone_text("@ IN A 192.0.2.1\n", "example.nl.")

    def test_unknown_directive(self):
        with pytest.raises(ZoneFileSyntaxError, match="unsupported directive"):
            parse_zone_text("$GENERATE 1-10 a A 192.0.2.$\n", "example.nl.")

    def test_include_is_an_unknown_directive(self):
        with pytest.raises(ZoneFileSyntaxError, match="unsupported directive"):
            parse_zone_text("$INCLUDE other.zone\n", "example.nl.")

    def test_error_reports_line_number(self):
        with pytest.raises(ZoneFileSyntaxError) as excinfo:
            parse_zone_text("$TTL 60\n@ IN A 192.0.2.1\n@ IN BOGUS x\n", "example.nl.")
        assert excinfo.value.line == 3

    def test_bad_ttl(self):
        with pytest.raises(ZoneFileSyntaxError):
            parse_zone_text("$TTL abc\n", "example.nl.")


class TestRoundtrip:
    def test_serialize_and_reparse(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        text = zone_to_text(zone)
        reparsed = parse_zone_text(text, "example.nl.")
        assert {
            (rs.name, rs.rrtype, tuple(rs.rdatas)) for rs in zone.rrsets()
        } == {(rs.name, rs.rrtype, tuple(rs.rdatas)) for rs in reparsed.rrsets()}

    def test_soa_emitted_first(self):
        zone = parse_zone_text(BASIC, "example.nl.")
        lines = zone_to_text(zone).splitlines()
        assert "SOA" in lines[1]
