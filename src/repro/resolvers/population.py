"""Resolver population model: the mix of implementations in the wild.

The paper cannot see which software each recursive runs (middleboxes,
§3.1), only the aggregate behavior.  Yu et al. [33] found roughly half of
implementations select by latency and the rest spread queries randomly or
stick to a server.  :data:`DEFAULT_MIX` encodes a mix consistent with
both: it reproduces the paper's weak/strong preference fractions when run
through the Table 1 configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..seeding import CounterStream, default_rng, derive_rng
from .base import ServerSelector
from .bind import BindSelector
from .naive import RandomSelector, RoundRobinSelector, StickySelector
from .powerdns import PowerDnsSelector
from .unbound import UnboundSelector
from .windows import WindowsSelector

SELECTOR_CLASSES: dict[str, type[ServerSelector]] = {
    cls.name: cls
    for cls in (
        BindSelector,
        UnboundSelector,
        PowerDnsSelector,
        WindowsSelector,
        RandomSelector,
        RoundRobinSelector,
        StickySelector,
    )
}

#: Latency-driven implementations (BIND, PowerDNS, Windows) ≈ half of the
#: population, per Yu et al.; Unbound behaves uniformly inside its 400 ms
#: band; the rest are cache-less forwarders.
DEFAULT_MIX: dict[str, float] = {
    "bind": 0.28,
    "powerdns": 0.12,
    "windows": 0.09,
    "unbound": 0.25,
    "random": 0.15,
    "roundrobin": 0.05,
    "sticky": 0.06,
}

#: Infrastructure-cache TTLs per implementation, seconds (§4.4: BIND ~10
#: minutes [3], Unbound ~15 minutes [30]; cache-less entries are moot).
INFRA_TTL_S: dict[str, float] = {
    "bind": 600.0,
    "powerdns": 600.0,
    "windows": 900.0,
    "unbound": 900.0,
    "random": 600.0,
    "roundrobin": 600.0,
    "sticky": 600.0,
}


@dataclass(frozen=True)
class PopulationSample:
    """One drawn resolver implementation."""

    impl_name: str
    selector: ServerSelector
    infra_ttl_s: float


class ResolverPopulation:
    """Draws resolver implementations according to a weighted mix."""

    def __init__(
        self,
        mix: dict[str, float] | None = None,
        rng: random.Random | None = None,
        selector_overrides: dict[str, dict] | None = None,
        seed: int | None = None,
    ):
        self.mix = dict(DEFAULT_MIX if mix is None else mix)
        self.selector_overrides = dict(selector_overrides or {})
        unknown = set(self.mix) - set(SELECTOR_CLASSES)
        if unknown:
            raise ValueError(f"unknown selector names in mix: {sorted(unknown)}")
        total = sum(self.mix.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.mix = {name: weight / total for name, weight in self.mix.items()}
        if rng is None:
            rng = (
                derive_rng(seed, "population.shared")
                if seed is not None
                else default_rng("resolvers.population")
            )
        self.rng = rng

    def sample(
        self,
        rng: random.Random | None = None,
        selector_rng: random.Random | CounterStream | None = None,
    ) -> PopulationSample:
        """Draw one implementation and instantiate its selector.

        Pass a per-entity ``rng`` (derived from a seed path) to make the
        draw independent of every other sample — the sharded experiment
        engine relies on this; the shared fallback stream remains for
        callers that own the whole draw order.  ``selector_rng`` is the
        stream the selector keeps; by default a Mersenne one off ``rng``.
        """
        rng = rng if rng is not None else self.rng
        names = list(self.mix)
        weights = [self.mix[name] for name in names]
        name = rng.choices(names, weights=weights, k=1)[0]
        if selector_rng is None:
            selector_rng = random.Random(rng.randrange(2**63))
        selector = SELECTOR_CLASSES[name](
            rng=selector_rng, **self.selector_overrides.get(name, {})
        )
        return PopulationSample(
            impl_name=name,
            selector=selector,
            infra_ttl_s=INFRA_TTL_S.get(name, 600.0),
        )
