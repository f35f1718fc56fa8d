"""Tests for repro.dns.zone lookup semantics."""

import pytest

from repro.dns.errors import ZoneError
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import CNAME, NS, SOA, TXT, A
from repro.dns.server import AuthoritativeServer
from repro.dns.types import RRType
from repro.dns.zone import LookupStatus, Zone

ORIGIN = Name.from_text("example.nl.")


@pytest.fixture
def zone():
    z = Zone(ORIGIN)
    z.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.example.nl."),
            Name.from_text("hostmaster.example.nl."),
            1,
            7200,
            3600,
            1209600,
            300,
        ),
        ttl=3600,
    )
    z.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    z.add("ns1.example.nl.", RRType.A, A("192.0.2.1"))
    z.add("www.example.nl.", RRType.A, A("192.0.2.80"))
    z.add("www.example.nl.", RRType.TXT, TXT.from_value("hello"))
    z.add("alias.example.nl.", RRType.CNAME, CNAME(Name.from_text("www.example.nl.")))
    z.add("a.b.example.nl.", RRType.A, A("192.0.2.9"))
    # Delegation: sub.example.nl -> external name servers, with glue.
    z.add("sub.example.nl.", RRType.NS, NS(Name.from_text("ns.sub.example.nl.")))
    z.add("ns.sub.example.nl.", RRType.A, A("192.0.2.53"))
    # Wildcard.
    z.add("*.wild.example.nl.", RRType.TXT, TXT.from_value("wildcard"))
    return z


class TestLookupSuccess:
    def test_exact_match(self, zone):
        result = zone.lookup(Name.from_text("www.example.nl."), RRType.A)
        assert result.status == LookupStatus.SUCCESS
        assert result.answers[0].rdatas == [A("192.0.2.80")]

    def test_case_insensitive_lookup(self, zone):
        result = zone.lookup(Name.from_text("WWW.EXAMPLE.NL."), RRType.A)
        assert result.status == LookupStatus.SUCCESS

    def test_apex_ns(self, zone):
        result = zone.lookup(ORIGIN, RRType.NS)
        assert result.status == LookupStatus.SUCCESS

    def test_any_query_returns_all_types(self, zone):
        result = zone.lookup(Name.from_text("www.example.nl."), RRType.ANY)
        assert result.status == LookupStatus.SUCCESS
        types = {rrset.rrtype for rrset in result.answers}
        assert types == {RRType.A, RRType.TXT}


class TestNegative:
    def test_nxdomain_with_soa(self, zone):
        result = zone.lookup(Name.from_text("missing.example.nl."), RRType.A)
        assert result.status == LookupStatus.NXDOMAIN
        assert result.authority[0].rrtype == RRType.SOA

    def test_nodata_for_existing_name(self, zone):
        result = zone.lookup(Name.from_text("www.example.nl."), RRType.AAAA)
        assert result.status == LookupStatus.NODATA
        assert result.authority[0].rrtype == RRType.SOA

    def test_empty_non_terminal_is_nodata(self, zone):
        # "b.example.nl" exists only because "a.b.example.nl" does.
        result = zone.lookup(Name.from_text("b.example.nl."), RRType.A)
        assert result.status == LookupStatus.NODATA

    def test_out_of_zone_is_nxdomain(self, zone):
        result = zone.lookup(Name.from_text("example.com."), RRType.A)
        assert result.status == LookupStatus.NXDOMAIN


class TestCname:
    def test_cname_chased_in_zone(self, zone):
        result = zone.lookup(Name.from_text("alias.example.nl."), RRType.A)
        assert result.status == LookupStatus.CNAME
        assert result.answers[0].rrtype == RRType.CNAME
        assert result.answers[1].rrtype == RRType.A

    def test_cname_query_type_cname_returns_record(self, zone):
        result = zone.lookup(Name.from_text("alias.example.nl."), RRType.CNAME)
        assert result.status == LookupStatus.SUCCESS

    def test_cname_loop_terminates(self):
        z = Zone(ORIGIN)
        z.add("x.example.nl.", RRType.CNAME, CNAME(Name.from_text("y.example.nl.")))
        z.add("y.example.nl.", RRType.CNAME, CNAME(Name.from_text("x.example.nl.")))
        result = z.lookup(Name.from_text("x.example.nl."), RRType.A)
        assert result.status == LookupStatus.CNAME
        assert len(result.answers) <= 3


class TestDelegation:
    def test_query_below_cut_returns_referral(self, zone):
        result = zone.lookup(Name.from_text("host.sub.example.nl."), RRType.A)
        assert result.status == LookupStatus.DELEGATION
        assert result.authority[0].rrtype == RRType.NS
        assert result.authority[0].name == Name.from_text("sub.example.nl.")

    def test_query_at_cut_returns_referral(self, zone):
        result = zone.lookup(Name.from_text("sub.example.nl."), RRType.A)
        assert result.status == LookupStatus.DELEGATION

    def test_glue_included(self, zone):
        result = zone.lookup(Name.from_text("host.sub.example.nl."), RRType.A)
        glue_names = {rrset.name for rrset in result.additional}
        assert Name.from_text("ns.sub.example.nl.") in glue_names

    def test_apex_ns_is_not_delegation(self, zone):
        result = zone.lookup(ORIGIN, RRType.NS)
        assert result.status == LookupStatus.SUCCESS


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(Name.from_text("anything.wild.example.nl."), RRType.TXT)
        assert result.status == LookupStatus.SUCCESS
        assert result.answers[0].name == Name.from_text("anything.wild.example.nl.")
        assert result.answers[0].rdatas == [TXT.from_value("wildcard")]

    def test_wildcard_multi_label(self, zone):
        result = zone.lookup(Name.from_text("a.b.wild.example.nl."), RRType.TXT)
        assert result.status == LookupStatus.SUCCESS

    def test_wildcard_wrong_type_is_nodata(self, zone):
        result = zone.lookup(Name.from_text("anything.wild.example.nl."), RRType.A)
        assert result.status == LookupStatus.NODATA

    def test_explicit_name_beats_wildcard(self, zone):
        zone.add("fixed.wild.example.nl.", RRType.TXT, TXT.from_value("explicit"))
        result = zone.lookup(Name.from_text("fixed.wild.example.nl."), RRType.TXT)
        assert result.answers[0].rdatas == [TXT.from_value("explicit")]


class TestZoneManagement:
    def test_out_of_zone_record_rejected(self, zone):
        from repro.dns.records import ResourceRecord
        from repro.dns.types import RRClass

        with pytest.raises(ZoneError):
            zone.add_record(
                ResourceRecord(
                    Name.from_text("other.com."), RRType.A, RRClass.IN, 60, A("192.0.2.1")
                )
            )

    def test_validate_passes_on_complete_zone(self, zone):
        zone.validate()

    def test_validate_requires_soa(self):
        z = Zone(ORIGIN)
        z.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
        with pytest.raises(ZoneError):
            z.validate()

    def test_validate_requires_apex_ns(self):
        z = Zone(ORIGIN)
        z.add(
            ORIGIN,
            RRType.SOA,
            SOA(Name.from_text("a."), Name.from_text("b."), 1, 2, 3, 4, 5),
        )
        with pytest.raises(ZoneError):
            z.validate()

    def test_duplicate_rdata_not_added_twice(self, zone):
        zone.add("www.example.nl.", RRType.A, A("192.0.2.80"))
        rrset = zone.get_rrset(Name.from_text("www.example.nl."), RRType.A)
        assert len(rrset) == 1

    def test_rrset_ttl_is_minimum(self, zone):
        zone.add("multi.example.nl.", RRType.A, A("192.0.2.10"), ttl=300)
        zone.add("multi.example.nl.", RRType.A, A("192.0.2.11"), ttl=60)
        rrset = zone.get_rrset(Name.from_text("multi.example.nl."), RRType.A)
        assert rrset.ttl == 60


class TestFrozenZones:
    def test_add_after_a_server_took_the_zone_raises(self, zone):
        AuthoritativeServer("srv", [zone])
        with pytest.raises(ZoneError, match="frozen"):
            zone.add("late.example.nl.", RRType.A, A("192.0.2.7"))
        assert zone.get_rrset(Name.from_text("late.example.nl."), RRType.A) is None

    def test_add_after_a_bare_lookup_raises(self, zone):
        assert zone.lookup(ORIGIN, RRType.NS).status == LookupStatus.SUCCESS
        with pytest.raises(ZoneError, match="frozen"):
            zone.add("www.example.nl.", RRType.A, A("192.0.2.81"))
        rrset = zone.get_rrset(Name.from_text("www.example.nl."), RRType.A)
        assert rrset.rdatas == [A("192.0.2.80")]

    def test_two_servers_share_one_zone(self, zone):
        servers = [AuthoritativeServer(site, [zone]) for site in ("fra", "syd")]
        zone.freeze()  # idempotent, like the servers' own calls
        query = Message.make_query("www.example.nl.", RRType.A, msg_id=3).to_wire()
        answers = {server.handle_wire(query) for server in servers}
        assert len(answers) == 1
        assert Message.from_wire(answers.pop()).answers[0].rdata == A("192.0.2.80")
