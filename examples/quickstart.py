#!/usr/bin/env python3
"""Quickstart: the DNS substrate and a first selection measurement.

Part 1 runs a real authoritative name server on a loopback UDP socket
and queries it with the library's own wire-format client.

Part 2 deploys the paper's 2C combination (Frankfurt + Sydney) on the
simulated Internet, lets an Amsterdam-based recursive resolve through
it for an hour, and shows the latency-driven preference emerge.

Run:  python examples/quickstart.py
"""

import random

from repro.core import Deployment
from repro.dns import (
    NS,
    SOA,
    TXT,
    AuthoritativeServer,
    Name,
    RRType,
    Zone,
)
from repro.dns.listener import Listener, query_udp
from repro.netsim import PROBE_CITIES, SimNetwork
from repro.resolvers import BindSelector, RecursiveResolver

DOMAIN = "ourtestdomain.nl."


def part1_real_udp() -> None:
    print("=== Part 1: a real authoritative server over UDP ===")
    zone = Zone(DOMAIN)
    zone.add(
        DOMAIN,
        RRType.SOA,
        SOA(
            Name.from_text(f"ns1.{DOMAIN}"),
            Name.from_text(f"hostmaster.{DOMAIN}"),
            2017041201, 7200, 3600, 1209600, 60,
        ),
    )
    zone.add(DOMAIN, RRType.NS, NS(Name.from_text(f"ns1.{DOMAIN}")))
    zone.add(f"probe.{DOMAIN}", RRType.TXT, TXT.from_value("hello from FRA"), ttl=5)

    engine = AuthoritativeServer("fra.example", [zone])
    with Listener(engine) as server:
        host, port = server.address
        print(f"authoritative listening on {host}:{port}")
        response = query_udp(server.address, f"probe.{DOMAIN}", RRType.TXT)
        print(f"TXT answer: {response.answers[0].rdata.value!r}")
        print(f"rcode={response.rcode.to_text()} aa={response.authoritative}")
    print()


def part2_simulated_measurement() -> None:
    print("=== Part 2: recursive selection on the simulated Internet ===")
    network = SimNetwork()
    deployment = Deployment.from_sites(DOMAIN, ("FRA", "SYD"))
    addresses = deployment.deploy(network)
    print(f"deployed ns1(FRA)={addresses[0]} ns2(SYD)={addresses[1]}")

    resolver = RecursiveResolver(
        "10.53.0.1",
        PROBE_CITIES["AMS"],  # an ISP resolver in Amsterdam
        network,
        BindSelector(rng=random.Random(1)),
        rng=random.Random(2),
    )
    resolver.add_stub_zone(DOMAIN, addresses)

    counts = {"FRA": 0, "SYD": 0}
    for tick in range(30):  # one hour, every 2 minutes, unique labels
        result = resolver.resolve(f"q{tick}.probe.{DOMAIN}", RRType.TXT)
        counts[result.served_by] += 1
        network.clock.advance(120.0)

    total = sum(counts.values())
    print(f"queries per site after 1h: {counts}")
    print(
        f"the BIND-style resolver sent {counts['FRA'] / total:.0%} of queries "
        "to the nearby Frankfurt authoritative — the paper's §4.2 in one VP"
    )


if __name__ == "__main__":
    part1_real_udp()
    part2_simulated_measurement()
