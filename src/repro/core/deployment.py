"""Deployments: authoritative specs and their instantiation on the network.

An :class:`AuthoritativeSpec` is one NS of a zone — unicast (one site) or
an anycast service (several sites sharing the NS address).  Deploying a
spec builds one authoritative engine per site, each answering the shared
probe name with a marker TXT that encodes the NS name and the site, the
paper's trick for identifying which server answered (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dns.name import Name
from ..dns.rdata import NS, SOA, TXT, A
from ..dns.server import AuthoritativeServer
from ..dns.types import RRType
from ..dns.zone import Zone
from ..netsim.anycast import AnycastGroup, AnycastSite
from ..netsim.geo import DATACENTERS, Location
from ..netsim.network import SimNetwork
from ..telemetry import NULL_TELEMETRY

PROBE_LABEL = "probe"
TXT_TTL = 5  # the paper's cache-defeating TTL


@dataclass(frozen=True)
class AuthoritativeSpec:
    """One NS record's service: a name and the site(s) behind its address."""

    name: str                  # e.g. "ns1"
    sites: tuple[str, ...]     # datacenter codes; >1 means anycast
    suboptimal_rate: float = 0.10  # anycast catchment imperfection

    def __post_init__(self):
        if not self.sites:
            raise ValueError(f"authoritative {self.name} needs at least one site")
        unknown = [code for code in self.sites if code not in DATACENTERS]
        if unknown:
            raise ValueError(f"unknown datacenter codes: {unknown}")

    @property
    def is_anycast(self) -> bool:
        return len(self.sites) > 1


@dataclass
class DeployedAuthoritative:
    """A spec bound to an address with running engines."""

    spec: AuthoritativeSpec
    address: str
    engines: dict[str, AuthoritativeServer] = field(default_factory=dict)


def build_zone(domain: Name, ns_names: list[Name], marker: str) -> Zone:
    """The test zone one site serves; ``marker`` identifies the site."""
    zone = Zone(domain)
    zone.add(
        domain,
        RRType.SOA,
        SOA(
            ns_names[0],
            Name.from_text("hostmaster").concatenate(domain),
            2017041201,
            7200,
            3600,
            1209600,
            60,
        ),
        ttl=3600,
    )
    for index, ns_name in enumerate(ns_names):
        zone.add(domain, RRType.NS, NS(ns_name), ttl=3600)
        zone.add(ns_name, RRType.A, A(f"192.0.2.{index + 1}"), ttl=3600)
    probe_name = Name.from_text(PROBE_LABEL).concatenate(domain)
    zone.add(probe_name, RRType.TXT, TXT.from_value(marker), ttl=TXT_TTL)
    zone.add(probe_name.child(b"*"), RRType.TXT, TXT.from_value(marker), ttl=TXT_TTL)
    return zone


class Deployment:
    """A set of authoritatives for one test domain, deployable on a network."""

    def __init__(
        self, domain: str, specs: list[AuthoritativeSpec], telemetry=None
    ):
        if not specs:
            raise ValueError("a deployment needs at least one authoritative")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("authoritative names must be unique")
        self.domain = Name.from_text(domain)
        self.specs = list(specs)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.deployed: list[DeployedAuthoritative] = []

    @classmethod
    def from_sites(cls, domain: str, sites: tuple[str, ...] | list[str]) -> "Deployment":
        """Table-1-style deployment: one unicast authoritative per site."""
        specs = [
            AuthoritativeSpec(name=f"ns{i + 1}", sites=(code,))
            for i, code in enumerate(sites)
        ]
        return cls(domain, specs)

    @property
    def ns_names(self) -> list[Name]:
        return [
            Name.from_text(spec.name).concatenate(self.domain) for spec in self.specs
        ]

    def deploy(self, network: SimNetwork, base_address: str = "10.0") -> list[str]:
        """Instantiate every authoritative on the network.

        Returns the list of service addresses (the zone's NS set).  Pass
        an IPv6 prefix (e.g. ``"2001:db8:53"``) as ``base_address`` for
        the paper's IPv6-only deployment variant (§3.1).
        """
        if self.telemetry is NULL_TELEMETRY:
            # Inherit the network's bundle: wiring telemetry into the
            # shared SimNetwork instruments the engines deployed on it.
            self.telemetry = getattr(network, "telemetry", NULL_TELEMETRY)
        addresses = []
        ns_names = self.ns_names
        ipv6 = ":" in base_address
        for index, spec in enumerate(self.specs):
            if ipv6:
                address = f"{base_address}:{index}::53"
            else:
                address = f"{base_address}.{index}.53"
            deployed = DeployedAuthoritative(spec=spec, address=address)
            if spec.is_anycast:
                group = AnycastGroup(address, suboptimal_rate=spec.suboptimal_rate)
                for code in spec.sites:
                    engine = self._make_engine(spec, code, ns_names)
                    deployed.engines[code] = engine
                    group.add_site(
                        AnycastSite(code, DATACENTERS[code], engine.handle_wire)
                    )
                network.register_anycast(group)
            else:
                code = spec.sites[0]
                engine = self._make_engine(spec, code, ns_names)
                deployed.engines[code] = engine
                network.register_host(address, DATACENTERS[code], engine.handle_wire)
            self.deployed.append(deployed)
            addresses.append(address)
        return addresses

    def _make_engine(
        self, spec: AuthoritativeSpec, code: str, ns_names: list[Name]
    ) -> AuthoritativeServer:
        marker = f"{spec.name}-{code}"
        zone = build_zone(self.domain, ns_names, marker)
        return AuthoritativeServer(marker, [zone], telemetry=self.telemetry)

    # -- post-run accessors ---------------------------------------------------

    def site_of_address(self) -> dict[str, str]:
        """address -> site code for unicast NSes ('' for anycast)."""
        return {
            d.address: (d.spec.sites[0] if not d.spec.is_anycast else "")
            for d in self.deployed
        }

    def server_query_counts(self) -> dict[str, int]:
        """Per-site query totals from the authoritative-side logs."""
        counts: dict[str, int] = {}
        for deployed in self.deployed:
            for code, engine in deployed.engines.items():
                counts[f"{deployed.spec.name}-{code}"] = engine.stats.queries
        return counts
