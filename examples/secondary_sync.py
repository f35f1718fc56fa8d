#!/usr/bin/env python3
"""Operating an NS set: primary/secondary replication over real sockets.

The paper's NS sets are replica groups: one primary holds the zone, the
other authoritatives serve transferred copies.  This example runs a
primary on loopback, AXFRs the zone to a secondary, serves it,
bumps the serial on the primary, and shows the secondary's SOA-driven
refresh picking up the change.

Run:  python examples/secondary_sync.py
"""

from repro.dns import (
    NS,
    SOA,
    TXT,
    AuthoritativeServer,
    Name,
    RRType,
    SecondaryZone,
    Zone,
)
from repro.dns.listener import Listener, query_udp

ORIGIN = "example.nl."


def make_zone(serial: int, motd: str) -> Zone:
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(
            Name.from_text(f"ns1.{ORIGIN}"),
            Name.from_text(f"hostmaster.{ORIGIN}"),
            serial, 7200, 3600, 1209600, 300,
        ),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text(f"ns1.{ORIGIN}")))
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text(f"ns2.{ORIGIN}")))
    zone.add(f"motd.{ORIGIN}", RRType.TXT, TXT.from_value(motd))
    return zone


def main() -> None:
    primary_engine = AuthoritativeServer("primary", [make_zone(1, "hello v1")])
    with Listener(primary_engine) as primary:
        print(f"primary serving on {primary.address}")

        secondary = SecondaryZone(ORIGIN, primary.address)
        secondary.transfer()
        print(f"secondary transferred serial {secondary.serial}")

        replica_engine = AuthoritativeServer("secondary", [secondary.zone])
        with Listener(replica_engine) as replica:
            answer = query_udp(replica.address, f"motd.{ORIGIN}", RRType.TXT)
            print(f"secondary answers: {answer.answers[0].rdata.value!r}")

            print("bumping the primary to serial 2 ...")
            primary_engine.remove_zone(Name.from_text(ORIGIN))
            primary_engine.add_zone(make_zone(2, "hello v2"))

            refreshed = secondary.refresh()
            print(f"secondary refresh pulled update: {refreshed}")
            replica_engine.remove_zone(Name.from_text(ORIGIN))
            replica_engine.add_zone(secondary.zone)
            answer = query_udp(replica.address, f"motd.{ORIGIN}", RRType.TXT)
            print(f"secondary now answers: {answer.answers[0].rdata.value!r}")

            unchanged = secondary.refresh()
            print(f"second refresh (same serial) transferred: {unchanged}")


if __name__ == "__main__":
    main()
