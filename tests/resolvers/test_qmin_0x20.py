"""Tests for QNAME minimization (RFC 7816) and DNS-0x20 hardening."""

import random

import pytest

from repro.core.deployment import Deployment
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.naive import RandomSelector
from repro.resolvers.resolver import RecursiveResolver

DOMAIN = "ourtestdomain.nl."


def make_network():
    return SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(1))
    )


def deploy_three_levels(network):
    """root-ish 'nl.' -> 'ourtestdomain.nl.' -> records."""
    parent = Zone("nl.")
    parent.add(
        "nl.",
        RRType.SOA,
        SOA(Name.from_text("ns1.nl."), Name.from_text("h.nl."), 1, 2, 3, 4, 60),
    )
    parent.add("nl.", RRType.NS, NS(Name.from_text("ns1.nl.")))
    parent.add(
        "ourtestdomain.nl.", RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl."))
    )
    parent.add("ns1.ourtestdomain.nl.", RRType.A, A("10.0.0.1"))
    parent_engine = AuthoritativeServer("nl-ns", [parent])
    network.register_host("10.1.0.1", DATACENTERS["DUB"], parent_engine.handle_wire)

    child = Zone(DOMAIN)
    child.add(
        DOMAIN,
        RRType.SOA,
        SOA(
            Name.from_text(f"ns1.{DOMAIN}"), Name.from_text(f"h.{DOMAIN}"),
            1, 2, 3, 4, 60,
        ),
    )
    child.add(DOMAIN, RRType.NS, NS(Name.from_text(f"ns1.{DOMAIN}")))
    child.add(f"deep.probe.{DOMAIN}", RRType.TXT, TXT.from_value("treasure"))
    child_engine = AuthoritativeServer("child", [child])
    network.register_host("10.0.0.1", DATACENTERS["FRA"], child_engine.handle_wire)
    return parent_engine, child_engine


def make_resolver(network, **kwargs):
    resolver = RecursiveResolver(
        "10.53.0.1",
        PROBE_CITIES["AMS"],
        network,
        RandomSelector(rng=random.Random(2)),
        rng=random.Random(3),
        **kwargs,
    )
    resolver.add_stub_zone("nl.", ["10.1.0.1"])
    return resolver


class TestQnameMinimization:
    def test_resolution_still_succeeds(self):
        network = make_network()
        deploy_three_levels(network)
        resolver = make_resolver(network, qname_minimization=True)
        result = resolver.resolve(f"deep.probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded
        assert result.txt_value() == "treasure"

    def test_parent_never_sees_full_qname(self):
        network = make_network()
        parent_engine, _ = deploy_three_levels(network)
        resolver = make_resolver(network, qname_minimization=True)
        resolver.resolve(f"deep.probe.{DOMAIN}", RRType.TXT)
        parent_qnames = {entry.qname.to_text() for entry in parent_engine.query_log}
        assert f"deep.probe.{DOMAIN}" not in parent_qnames
        # The parent saw at most the zone cut's name.
        assert parent_qnames <= {"ourtestdomain.nl."}

    def test_without_qmin_parent_sees_full_qname(self):
        network = make_network()
        parent_engine, _ = deploy_three_levels(network)
        resolver = make_resolver(network, qname_minimization=False)
        resolver.resolve(f"deep.probe.{DOMAIN}", RRType.TXT)
        parent_qnames = {entry.qname.to_text() for entry in parent_engine.query_log}
        assert f"deep.probe.{DOMAIN}" in parent_qnames

    def test_nxdomain_answered_early(self):
        network = make_network()
        parent_engine, _ = deploy_three_levels(network)
        resolver = make_resolver(network, qname_minimization=True)
        result = resolver.resolve("x.y.doesnotexist.nl.", RRType.TXT)
        assert result.rcode == Rcode.NXDOMAIN

    def test_intermediate_empty_nonterminals_descended(self):
        network = make_network()
        _, child_engine = deploy_three_levels(network)
        resolver = make_resolver(network, qname_minimization=True)
        result = resolver.resolve(f"deep.probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded
        # The child saw the minimized NS probe for probe.<domain> (an
        # empty non-terminal) before the final TXT query.
        child_queries = [
            (entry.qname.to_text(), entry.qtype) for entry in child_engine.query_log
        ]
        assert (f"probe.{DOMAIN}", RRType.NS) in child_queries
        assert (f"deep.probe.{DOMAIN}", RRType.TXT) in child_queries


class TestCaseRandomization:
    def deploy_simple(self, network):
        deployment = Deployment.from_sites(DOMAIN, ("FRA",))
        return deployment.deploy(network)

    def test_resolution_succeeds_with_0x20(self):
        network = make_network()
        addresses = self.deploy_simple(network)
        resolver = RecursiveResolver(
            "10.53.0.1", PROBE_CITIES["AMS"], network,
            RandomSelector(rng=random.Random(4)),
            rng=random.Random(5),
            case_randomization=True,
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        result = resolver.resolve(f"probe.{DOMAIN}", RRType.TXT)
        assert result.succeeded
        assert resolver.spoofs_rejected == 0

    def test_qname_case_actually_randomized(self):
        network = make_network()
        addresses = self.deploy_simple(network)

        seen_wire_names = []
        original = network.transmit

        def spy(kernel, client_location, client_address, dst, payload, on_result, **kw):
            message = Message.from_wire(payload)
            seen_wire_names.append(message.questions[0].name.to_text())
            return original(
                kernel, client_location, client_address, dst, payload, on_result, **kw
            )

        network.transmit = spy
        resolver = RecursiveResolver(
            "10.53.0.1", PROBE_CITIES["AMS"], network,
            RandomSelector(rng=random.Random(6)),
            rng=random.Random(7),
            case_randomization=True,
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        for index in range(6):
            resolver.resolve(f"q{index}.probe.{DOMAIN}", RRType.TXT)
        assert any(name != name.lower() for name in seen_wire_names)

    def test_spoofed_case_rejected(self):
        network = make_network()
        # A fake server that lowercases the echoed question (spoof-like).
        from repro.dns.message import Message as Msg

        def fake_server(payload, client, now):
            query = Msg.from_wire(payload)
            response = query.make_response()
            question = query.questions[0]
            from repro.dns.message import Question

            lowered = Name.from_text(question.name.to_text().lower())
            response.questions = [Question(lowered, question.rrtype, question.rrclass)]
            return response.to_wire()

        network.register_host("10.0.9.9", DATACENTERS["FRA"], fake_server)
        resolver = RecursiveResolver(
            "10.53.0.1", PROBE_CITIES["AMS"], network,
            RandomSelector(rng=random.Random(8)),
            rng=random.Random(9),
            case_randomization=True,
        )
        resolver.add_stub_zone(DOMAIN, ["10.0.9.9"])
        result = resolver.resolve(f"MiXeD.probe.{DOMAIN}", RRType.TXT)
        assert result.rcode == Rcode.SERVFAIL
        assert resolver.spoofs_rejected > 0
