"""Vantage points: RIPE-Atlas-like probes.

The paper uses ~9,700 Atlas probes across ~3,300 ASes, heavily skewed
toward Europe, and treats each unique (probe id, recursive address) pair
as one vantage point.  :class:`ProbeGenerator` reproduces that
population shape deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.geo import (
    ATLAS_CONTINENT_WEIGHTS,
    Continent,
    Location,
    cities_by_continent,
)
from ..seeding import derive_rng


@dataclass(frozen=True, slots=True)
class Probe:
    """One vantage point host (the CL in the paper's Figure 1).

    ``ipv6_capable`` mirrors the paper's §3.1 population: 69 % of Atlas
    VPs had IPv4 connectivity only, so the IPv6 repeat of the experiment
    uses roughly a third of the probes.
    """

    probe_id: int
    location: Location
    asn: int
    address: str
    ipv6_capable: bool = False

    @property
    def continent(self) -> Continent:
        return self.location.continent


class ProbeGenerator:
    """Draws probes with the Atlas continent skew and AS clustering.

    Every probe's attributes come from a stream derived from ``seed``
    and the probe id alone — probe N is the same probe whether the
    population is generated whole or any subset of ids is regenerated
    in a shard worker.  ``rng`` is accepted for backward compatibility;
    when only an rng is given, the seed is drawn from it once.
    """

    def __init__(
        self,
        rng: random.Random | None = None,
        continent_weights: dict[Continent, float] | None = None,
        ases_per_continent: int = 550,
        ipv6_share: float = 0.31,
        seed: int | None = None,
    ):
        if seed is None:
            seed = (rng if rng is not None else random.Random(0)).getrandbits(63)
        self.seed = seed
        self.ipv6_share = ipv6_share
        self.weights = dict(
            ATLAS_CONTINENT_WEIGHTS if continent_weights is None else continent_weights
        )
        total = sum(self.weights.values())
        self.weights = {cont: w / total for cont, w in self.weights.items()}
        self._ases_per_continent = ases_per_continent
        # Disjoint AS number pools per continent, so AS → continent is
        # well defined (as it overwhelmingly is in practice).
        self._as_pools: dict[Continent, list[int]] = {}
        base = 1000
        for continent in Continent:
            self._as_pools[continent] = list(
                range(base, base + ases_per_continent)
            )
            base += ases_per_continent

    def generate(self, count: int, address_prefix: str = "172.16") -> list[Probe]:
        """Generate ``count`` probes; addresses are unique per probe."""
        return [
            self.generate_one(probe_id, address_prefix=address_prefix)
            for probe_id in range(count)
        ]

    def generate_one(
        self, probe_id: int, address_prefix: str = "172.16"
    ) -> Probe:
        """Probe ``probe_id``, identical no matter which ids co-generate."""
        rng = derive_rng(self.seed, "probe", probe_id)
        continents = list(self.weights)
        weights = [self.weights[c] for c in continents]
        continent = rng.choices(continents, weights=weights, k=1)[0]
        city = rng.choice(cities_by_continent(continent))
        asn = rng.choice(self._as_pools[continent])
        address = f"{address_prefix}.{probe_id // 250}.{probe_id % 250 + 1}"
        return Probe(
            probe_id, city, asn, address,
            ipv6_capable=rng.random() < self.ipv6_share,
        )
