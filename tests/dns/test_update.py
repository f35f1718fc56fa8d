"""Tests for RFC 2136 dynamic updates, including the zone-poisoning case."""

import pytest

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.records import ResourceRecord
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRClass, RRType
from repro.dns.update import (
    UpdateHandler,
    UpdatePolicy,
    attach_update_handling,
    make_update,
)
from repro.dns.zone import Zone

ORIGIN = Name.from_text("example.nl.")


def make_engine():
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
            1, 2, 3, 4, 60),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("www.example.nl.", RRType.A, A("192.0.2.80"))
    return AuthoritativeServer("srv", [zone])


def delegate_then_delete_the_only_ns(engine):
    """Delegate ``sub.example.nl`` to one NS now; returns a callable that
    deletes that single RR (class NONE) through an UPDATE and hands back
    the response."""
    cut = Name.from_text("sub.example.nl.")
    target = NS(Name.from_text("ns.elsewhere.example."))
    engine.find_zone(ORIGIN).add(cut, RRType.NS, target)
    update = make_update(ORIGIN)
    update.authorities.append(
        ResourceRecord(cut, RRType.NS, RRClass.NONE, 0, target)
    )
    handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
    return lambda: handler.handle(update, client="10.0.0.1")


def add_record(name="new.example.nl.", address="192.0.2.99"):
    return ResourceRecord(
        Name.from_text(name), RRType.A, RRClass.IN, 300, A(address)
    )


class TestPolicy:
    def test_default_denies_everyone(self):
        assert not UpdatePolicy().permits("192.0.2.1")

    def test_allow_network(self):
        policy = UpdatePolicy(allow_from=["192.0.2.0/24"])
        assert policy.permits("192.0.2.1")
        assert policy.permits("192.0.2.1:5353")
        assert not policy.permits("203.0.113.1")

    def test_allow_any(self):
        assert UpdatePolicy(allow_any=True).permits("anything")

    def test_garbage_client_denied(self):
        assert not UpdatePolicy(allow_from=["0.0.0.0/0"]).permits("not-an-ip")


class TestUpdateHandler:
    def test_authorized_add(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_from=["10.0.0.0/8"]))
        update = make_update(ORIGIN, additions=[add_record()])
        response = handler.handle(update, client="10.1.2.3")
        assert response.rcode == Rcode.NOERROR
        assert handler.applied == 1
        result = engine.handle_query(Message.make_query("new.example.nl.", RRType.A))
        assert result.answers[0].rdata == A("192.0.2.99")

    def test_unauthorized_refused(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_from=["10.0.0.0/8"]))
        update = make_update(ORIGIN, additions=[add_record()])
        response = handler.handle(update, client="203.0.113.7")
        assert response.rcode == Rcode.REFUSED
        assert handler.refused == 1
        result = engine.handle_query(Message.make_query("new.example.nl.", RRType.A))
        assert result.rcode == Rcode.NXDOMAIN

    def test_delete_rrset(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
        update = make_update(
            ORIGIN, deletions=[(Name.from_text("www.example.nl."), RRType.A)]
        )
        response = handler.handle(update, client="10.0.0.1")
        assert response.rcode == Rcode.NOERROR
        result = engine.handle_query(Message.make_query("www.example.nl.", RRType.A))
        assert not result.answers

    def test_delete_single_rr(self):
        engine = make_engine()
        zone = engine.find_zone(ORIGIN)
        zone.add("multi.example.nl.", RRType.A, A("192.0.2.1"))
        zone.add("multi.example.nl.", RRType.A, A("192.0.2.2"))
        handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
        update = make_update(ORIGIN)
        update.authorities.append(
            ResourceRecord(
                Name.from_text("multi.example.nl."), RRType.A, RRClass.NONE, 0,
                A("192.0.2.1"),
            )
        )
        response = handler.handle(update, client="10.0.0.1")
        assert response.rcode == Rcode.NOERROR
        rrset = zone.get_rrset(Name.from_text("multi.example.nl."), RRType.A)
        assert rrset.rdatas == [A("192.0.2.2")]

    def test_deleting_the_last_ns_of_a_delegation_removes_the_cut(self):
        # The single-RR delete (class NONE) of a cut's only NS must not
        # leave a dead referral behind, neither in the zone nor in what
        # the server remembers about that suffix.
        engine = make_engine()
        zone = engine.find_zone(ORIGIN)
        cut = Name.from_text("sub.example.nl.")
        delete_the_ns = delegate_then_delete_the_only_ns(engine)
        zone.add("*.sub.example.nl.", RRType.TXT, TXT.from_value("uncovered"))
        below = Message.make_query("host.sub.example.nl.", RRType.TXT, msg_id=7)
        referral = Message.from_wire(engine.handle_wire(below.to_wire()))
        assert referral.authorities and not referral.authoritative
        # The referral's owner is a pointer into the question: the server
        # noted that this suffix cannot be answered from a template.
        assert engine._uncachable and not engine._templates

        assert delete_the_ns().rcode == Rcode.NOERROR

        assert zone.get_rrset(cut, RRType.NS) is None
        at_cut = engine.handle_query(Message.make_query(cut, RRType.A))
        assert at_cut.rcode == Rcode.NOERROR and not at_cut.answers  # NODATA
        assert at_cut.authoritative
        # The zone's version moved, so the remembered verdict is void: the
        # next miss proves the suffix afresh and, the wildcard now being
        # visible, builds its template.
        first = engine.handle_wire(below.to_wire())
        assert b"uncovered" in first and engine._templates
        reference = AuthoritativeServer("srv", [zone])
        reference._parse_fast_query = lambda wire: None
        assert first == reference.handle_wire(below.to_wire())
        assert engine.handle_wire(below.to_wire()) == first  # now a template hit

    def test_deleting_the_last_ns_without_a_wildcard_is_nxdomain(self):
        engine = make_engine()
        assert delegate_then_delete_the_only_ns(engine)().rcode == Rcode.NOERROR
        result = engine.handle_query(Message.make_query("x.sub.example.nl.", RRType.A))
        assert result.rcode == Rcode.NXDOMAIN
        assert [record.rrtype for record in result.authorities] == [RRType.SOA]

    def test_unknown_zone_notauth(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
        update = make_update("other.com.", additions=[])
        response = handler.handle(update, client="10.0.0.1")
        assert response.rcode == Rcode.NOTAUTH

    def test_below_apex_refused(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
        update = make_update("www.example.nl.", additions=[add_record()])
        response = handler.handle(update, client="10.0.0.1")
        assert response.rcode == Rcode.NOTAUTH

    def test_wrong_opcode_formerr(self):
        engine = make_engine()
        handler = UpdateHandler(engine, UpdatePolicy(allow_any=True))
        response = handler.handle(
            Message.make_query(ORIGIN, RRType.SOA), client="10.0.0.1"
        )
        assert response.rcode == Rcode.FORMERR


class TestZonePoisoning:
    """The misconfiguration of Korczyński et al. [13]: open updates."""

    def test_open_zone_poisonable_by_anyone(self):
        engine = make_engine()
        attach_update_handling(engine, UpdatePolicy(allow_any=True))
        poison = make_update(
            ORIGIN,
            additions=[add_record(name="www.example.nl.", address="198.51.100.66")],
        )
        response = engine.handle_query(poison, client="203.0.113.66")
        assert response.rcode == Rcode.NOERROR
        # The attacker's record now shadows the legitimate one.
        answer = engine.handle_query(Message.make_query("www.example.nl.", RRType.A))
        addresses = {record.rdata.address for record in answer.answers}
        assert "198.51.100.66" in addresses

    def test_safe_default_rejects_poisoning(self):
        engine = make_engine()
        attach_update_handling(engine, UpdatePolicy())
        poison = make_update(
            ORIGIN,
            additions=[add_record(name="www.example.nl.", address="198.51.100.66")],
        )
        response = engine.handle_query(poison, client="203.0.113.66")
        assert response.rcode == Rcode.REFUSED
        answer = engine.handle_query(Message.make_query("www.example.nl.", RRType.A))
        addresses = {record.rdata.address for record in answer.answers}
        assert addresses == {"192.0.2.80"}

    def test_update_over_wire(self):
        engine = make_engine()
        attach_update_handling(engine, UpdatePolicy(allow_from=["10.0.0.0/8"]))
        update = make_update(ORIGIN, additions=[add_record()])
        wire = engine.handle_wire(update.to_wire(), client="10.2.3.4", now=1.0)
        response = Message.from_wire(wire)
        assert response.rcode == Rcode.NOERROR
        assert response.opcode.name == "UPDATE"

    def test_ordinary_queries_unaffected(self):
        engine = make_engine()
        attach_update_handling(engine, UpdatePolicy())
        result = engine.handle_query(Message.make_query("www.example.nl.", RRType.A))
        assert result.rcode == Rcode.NOERROR
        assert result.answers
