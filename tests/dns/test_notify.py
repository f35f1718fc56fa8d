"""Tests for NOTIFY (RFC 1996)."""

import pytest

from repro.dns.axfr import NotifyReceiver, SecondaryZone, build_notify
from repro.dns.listener import Listener
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Opcode, Rcode, RRType
from repro.dns.zone import Zone

ORIGIN = Name.from_text("example.nl.")


def make_zone(serial, motd="v1"):
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
            serial, 2, 3, 4, 60),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("motd.example.nl.", RRType.TXT, TXT.from_value(motd))
    return zone


class TestBuildNotify:
    def test_opcode_and_question(self):
        notify = build_notify(ORIGIN)
        assert notify.opcode == Opcode.NOTIFY
        assert notify.question.name == ORIGIN
        assert notify.authoritative

    def test_wire_roundtrip(self):
        decoded = Message.from_wire(build_notify(ORIGIN, msg_id=9).to_wire())
        assert decoded.opcode == Opcode.NOTIFY
        assert decoded.msg_id == 9


class TestNotifyReceiver:
    def test_notify_triggers_refresh(self):
        engine = AuthoritativeServer("primary", [make_zone(1)])
        with Listener(engine) as primary:
            secondary = SecondaryZone(ORIGIN, primary.address)
            secondary.transfer()
            receiver = NotifyReceiver([secondary])

            engine.remove_zone(ORIGIN)
            engine.add_zone(make_zone(2, motd="v2"))
            response = receiver.handle(build_notify(ORIGIN))
            assert response.rcode == Rcode.NOERROR
            assert receiver.notifies_received == 1
            assert receiver.refreshes_triggered == 1
        assert secondary.serial == 2

    def test_notify_without_change_is_noop(self):
        engine = AuthoritativeServer("primary", [make_zone(5)])
        with Listener(engine) as primary:
            secondary = SecondaryZone(ORIGIN, primary.address)
            secondary.transfer()
            receiver = NotifyReceiver([secondary])
            receiver.handle(build_notify(ORIGIN))
            assert receiver.refreshes_triggered == 0

    def test_unknown_zone_refused(self):
        receiver = NotifyReceiver([])
        response = receiver.handle(build_notify("other.com."))
        assert response.rcode == Rcode.REFUSED

    def test_wrong_opcode_formerr(self):
        receiver = NotifyReceiver([])
        response = receiver.handle(Message.make_query(ORIGIN, RRType.SOA))
        assert response.rcode == Rcode.FORMERR
