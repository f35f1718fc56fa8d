"""Anycast public resolver services (the 8.8.8.8 pattern, §3.1).

Some probes are configured with a public DNS service instead of their
ISP's resolver.  Such services are anycast: one well-known address,
many resolver instances worldwide, each with its *own* caches.  A probe
reaches the instance its BGP catchment selects — so two probes "using
the same resolver" may in fact hit different instances with different
latency maps, one of the interferences the paper notes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..dns.name import Name
from ..netsim.anycast import AnycastGroup, AnycastSite
from ..netsim.geo import PROBE_CITIES, Location
from ..netsim.network import SimNetwork
from ..seeding import default_rng, derive_stream
from ..resolvers.bind import BindSelector
from ..resolvers.resolver import RecursiveResolver
from .probes import Probe

#: default instance cities for a global public service
DEFAULT_INSTANCE_CITIES = ("AMS", "NYC", "SIN", "SYDC", "SAO", "JNB")


@dataclass
class PublicResolverService:
    """One anycast public-DNS service with per-site resolver instances."""

    address: str
    instances: dict[str, RecursiveResolver]
    _catchment_group: AnycastGroup

    @classmethod
    def build(
        cls,
        address: str,
        network: SimNetwork,
        instance_cities: tuple[str, ...] = DEFAULT_INSTANCE_CITIES,
        selector_factory=BindSelector,
        rng: random.Random | None = None,
    ) -> "PublicResolverService":
        # Per-service namespace: two services built without an rng (e.g.
        # 8.8.8.8 and 1.1.1.1) must not make identical instance draws.
        rng = rng if rng is not None else default_rng("atlas.public", address)
        seed = rng.getrandbits(63)
        instances: dict[str, RecursiveResolver] = {}
        group = AnycastGroup(f"public-{address}", suboptimal_rate=0.05)
        for index, code in enumerate(instance_cities):
            location: Location = PROBE_CITIES[code]
            resolver = RecursiveResolver(
                address,  # all instances share the well-known address
                location,
                network,
                selector_factory(rng=derive_stream(seed, "selector", code)),
                rng=derive_stream(seed, "resolver", code),
            )
            instances[code] = resolver
            group.add_site(AnycastSite(code, location, lambda *a: None))
        return cls(address=address, instances=instances, _catchment_group=group)

    def instance_for(self, probe: Probe, network: SimNetwork) -> RecursiveResolver:
        """The instance this probe's packets reach (stable catchment)."""
        site = self._catchment_group.catchment(
            probe.location, probe.address, network.latency
        )
        return self.instances[site.code]

    def add_stub_zone(self, origin: Name | str, addresses: list[str]) -> None:
        for resolver in self.instances.values():
            resolver.add_stub_zone(origin, addresses)

    @property
    def instance_count(self) -> int:
        return len(self.instances)
