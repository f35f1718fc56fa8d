"""IP anycast: one service address, many sites, catchment selection.

BGP catchments mostly send clients to a nearby site, but not always —
peering and policy produce a tail of clients routed to distant sites.
:class:`AnycastGroup` models this with deterministic per-client draws:
with probability ``suboptimal_rate`` a client is pinned to its second- or
third-nearest site instead of the nearest.  Catchments are *stable*: the
same client always reaches the same site, as with real BGP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from .geo import Location
from .latency import LatencyModel

DatagramHandler = Callable[[bytes, str, float], "bytes | None"]


@dataclass
class AnycastSite:
    """One physical site announcing the group's address."""

    code: str
    location: Location
    handler: DatagramHandler


@dataclass
class AnycastGroup:
    """A set of sites sharing one service IP address."""

    address: str
    sites: list[AnycastSite] = field(default_factory=list)
    suboptimal_rate: float = 0.10

    def add_site(self, site: AnycastSite) -> None:
        self.sites.append(site)

    def _stable_draw(self, client_key: str) -> float:
        """Uniform [0,1) draw that is a pure function of (group, client)."""
        digest = hashlib.sha256(f"{self.address}|{client_key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def catchment(
        self,
        client_location: Location,
        client_key: str,
        latency: LatencyModel,
        exclude: frozenset | None = None,
    ) -> AnycastSite:
        """The site this client's packets reach, stable per client.

        ``exclude`` removes withdrawn sites from the announcement before
        ranking — the BGP view after a site stops announcing — so the
        client's catchment spills to its next-nearest remaining site
        while the stable per-client draw is preserved.
        """
        sites = self.sites
        if exclude:
            sites = [site for site in sites if site.code not in exclude]
        if not sites:
            raise ValueError(f"anycast group {self.address} has no sites")
        ranked = sorted(
            sites,
            key=lambda site: latency.base_rtt_ms(
                client_location.point, site.location.point
            ),
        )
        draw = self._stable_draw(client_key)
        if draw >= self.suboptimal_rate or len(ranked) == 1:
            return ranked[0]
        # Suboptimal clients: mostly the 2nd-nearest site, a few further.
        sub_draw = (draw / self.suboptimal_rate) * (len(ranked) - 1)
        index = 1 + min(int(sub_draw), len(ranked) - 2)
        return ranked[index]
