"""One ``ResponseDecodeMemo`` per ``SimNetwork``, shared by its resolvers.

A memo entry is keyed on wire bytes and certified from the wire alone,
so any resolver may reuse what another one's response built — through
``resolve()`` and on a caller's kernel alike — and every decode must
still equal ``Message.from_wire`` field for field.
"""

import random

import pytest

from repro.core.deployment import Deployment
from repro.dns.message import Message, ResponseDecodeMemo
from repro.dns.types import RRType
from repro.netsim.geo import PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.netsim.sched import EventKernel
from repro.resolvers.naive import RandomSelector
from repro.resolvers.resolver import RecursiveResolver

DOMAIN = "ourtestdomain.nl."


def build(resolvers: int):
    network = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0), rng=random.Random(1))
    )
    addresses = Deployment.from_sites(DOMAIN, ("FRA", "SYD")).deploy(network)
    made = []
    for index in range(resolvers):
        resolver = RecursiveResolver(
            f"10.53.0.{index}",
            PROBE_CITIES["AMS"],
            network,
            RandomSelector(rng=random.Random(index)),
            rng=random.Random(index + 100),
        )
        resolver.add_stub_zone(DOMAIN, addresses)
        made.append(resolver)
    return network, made


@pytest.fixture
def audited_decodes(monkeypatch):
    """Check every memo decode against the full decoder; collect the full
    response decodes the memo itself needed (none per hit)."""
    full_decodes = []
    from_wire = Message.from_wire
    decode = ResponseDecodeMemo.decode

    def counted_from_wire(wire, *rest):
        if wire[2] & 0x80:  # responses only: servers decode queries too
            full_decodes.append(wire)
        return from_wire(wire, *rest)

    def audited(memo, wire, qname):
        message = decode(memo, wire, qname)
        assert message == from_wire(wire)
        return message

    monkeypatch.setattr(Message, "from_wire", staticmethod(counted_from_wire))
    monkeypatch.setattr(ResponseDecodeMemo, "decode", audited)
    return full_decodes


def test_resolvers_on_one_network_share_its_memo(audited_decodes):
    network, resolvers = build(6)
    assert all(r._response_memo is network.response_memo for r in resolvers)
    kernel = EventKernel(clock=network.clock)
    results = []
    for tick in range(4):
        # Blocking calls first: resolve() is top-level only, never made
        # while another kernel holds events on the same clock.
        for index, resolver in enumerate(resolvers):
            qname = f"p{index}-t{tick}.probe.{DOMAIN}"
            if index % 2 == 0:
                results.append(resolver.resolve(qname, RRType.TXT))
        for index, resolver in enumerate(resolvers):
            qname = f"p{index}-t{tick}.probe.{DOMAIN}"
            if index % 2:
                resolver.resolve_event(qname, RRType.TXT, kernel, results.append)
        kernel.run()
        network.clock.advance(120.0)
    assert len(results) == 24 and all(result.succeeded for result in results)
    # 24 responses, two sites' templates: shapes are decoded in full
    # (plus one canary each) once per network, not once per resolver.
    shapes = len(network.response_memo._entries)
    assert 1 <= shapes <= 2
    assert len(audited_decodes) == 2 * shapes


def test_two_networks_do_not_share():
    network_a, (resolver_a,) = build(1)
    network_b, (resolver_b,) = build(1)
    assert network_a.response_memo is not network_b.response_memo
    assert resolver_a.resolve(f"a.probe.{DOMAIN}", RRType.TXT).succeeded
    assert network_a.response_memo._entries
    assert not network_b.response_memo._entries
    assert resolver_b._response_memo is network_b.response_memo
