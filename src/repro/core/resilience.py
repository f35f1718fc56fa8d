"""DDoS resilience of NS-set designs (§7 "Other Considerations").

The paper's secondary argument for anycast everywhere is resilience: the
companion study of the Nov 2015 Root event [18] showed anycast absorbs
volumetric attacks by spreading load across sites, while an overwhelmed
unicast authoritative simply drops queries.  This module models that:
every site has a capacity; attack traffic lands on sites according to
the bots' catchments; overloaded sites drop queries proportionally; and
recursives retry other NSes when one fails — so zone availability is
what the NS-*set* delivers, not any single server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..atlas.probes import Probe
from ..netsim.anycast import AnycastGroup, AnycastSite
from ..netsim.geo import (
    ATLAS_CONTINENT_WEIGHTS,
    DATACENTERS,
    Continent,
    cities_by_continent,
)
from ..netsim.latency import LatencyModel
from ..seeding import default_rng
from .deployment import AuthoritativeSpec


@dataclass(frozen=True)
class AttackScenario:
    """A volumetric attack on some or all NSes of a zone."""

    total_qps: float
    #: geographic distribution of attack sources (defaults to the
    #: client skew — botnets are where the hosts are)
    origin_weights: dict[Continent, float] | None = None
    #: NS indices under attack; None means every NS is hit equally
    target_ns: tuple[int, ...] | None = None
    #: number of synthetic bot origins used to compute catchment spread
    bot_count: int = 300
    #: fetch-amplification factor at the recursives: every attack query
    #: multiplies into this many fetches against the targets (the
    #: NXNSAttack mechanism; 1.0 = a plain volumetric flood).
    amplification: float = 1.0

    def qps_per_target(self, ns_count: int) -> dict[int, float]:
        targets = (
            tuple(range(ns_count)) if self.target_ns is None else self.target_ns
        )
        if not targets:
            return {}
        share = self.total_qps * self.amplification / len(targets)
        return {index: share for index in targets}


@dataclass
class SiteLoad:
    """Offered load vs. capacity for one site of one NS."""

    ns_name: str
    site_code: str
    capacity_qps: float
    offered_qps: float = 0.0

    @property
    def drop_probability(self) -> float:
        """Queries dropped once offered load exceeds capacity."""
        if self.offered_qps <= self.capacity_qps or self.offered_qps == 0.0:
            return 0.0
        return 1.0 - self.capacity_qps / self.offered_qps


@dataclass
class ResilienceReport:
    """Outcome of one design under one attack."""

    design_name: str
    availability: float          # fraction of client queries answered
    mean_latency_ms: float       # over answered queries, incl. retries
    site_loads: list[SiteLoad] = field(repr=False, default_factory=list)

    def overloaded_sites(self) -> list[SiteLoad]:
        return [load for load in self.site_loads if load.drop_probability > 0.0]


class ResilienceEvaluator:
    """Evaluates NS-set designs under volumetric attack."""

    def __init__(
        self,
        clients: list[Probe],
        latency: LatencyModel | None = None,
        site_capacity_qps: float = 100_000.0,
        legit_qps_per_client: float = 50.0,
        max_retries: int = 2,
        retry_penalty_ms: float = 800.0,
        rng: random.Random | None = None,
    ):
        if not clients:
            raise ValueError("evaluator needs clients")
        self.clients = clients
        self.latency = latency if latency is not None else LatencyModel()
        self.site_capacity_qps = site_capacity_qps
        self.legit_qps_per_client = legit_qps_per_client
        self.max_retries = max_retries
        self.retry_penalty_ms = retry_penalty_ms
        self.rng = rng if rng is not None else default_rng("core.resilience")

    # -- internals ---------------------------------------------------------

    def _group_for(self, spec: AuthoritativeSpec, index: int) -> AnycastGroup:
        group = AnycastGroup(
            f"resilience-{index}", suboptimal_rate=spec.suboptimal_rate
        )
        for code in spec.sites:
            group.add_site(AnycastSite(code, DATACENTERS[code], lambda *a: None))
        return group

    def _bot_origins(self, attack: AttackScenario) -> list:
        weights = dict(
            ATLAS_CONTINENT_WEIGHTS
            if attack.origin_weights is None
            else attack.origin_weights
        )
        continents = list(weights)
        probabilities = [weights[c] for c in continents]
        origins = []
        for index in range(attack.bot_count):
            continent = self.rng.choices(continents, weights=probabilities, k=1)[0]
            origins.append(
                (f"bot-{index}", self.rng.choice(cities_by_continent(continent)))
            )
        return origins

    def _site_loads(
        self,
        specs: list[AuthoritativeSpec],
        groups: list[AnycastGroup],
        attack: AttackScenario,
    ) -> dict[tuple[int, str], SiteLoad]:
        """Distribute legitimate + attack traffic over every site."""
        loads: dict[tuple[int, str], SiteLoad] = {}
        for index, spec in enumerate(specs):
            for code in spec.sites:
                loads[(index, code)] = SiteLoad(
                    ns_name=spec.name,
                    site_code=code,
                    capacity_qps=self.site_capacity_qps,
                )
        # Legitimate load spreads across all NSes (every NS gets queries).
        legit_per_ns = (
            len(self.clients) * self.legit_qps_per_client / len(specs)
        )
        for index, group in enumerate(groups):
            per_client = legit_per_ns / len(self.clients)
            for client in self.clients:
                site = group.catchment(client.location, client.address, self.latency)
                loads[(index, site.code)].offered_qps += per_client
        # Attack load lands by the bots' catchments.
        attack_per_ns = attack.qps_per_target(len(specs))
        if attack_per_ns:
            origins = self._bot_origins(attack)
            for index, qps in attack_per_ns.items():
                per_bot = qps / len(origins)
                for key, location in origins:
                    site = groups[index].catchment(location, key, self.latency)
                    loads[(index, site.code)].offered_qps += per_bot
        return loads

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        specs: list[AuthoritativeSpec],
        attack: AttackScenario,
        name: str = "design",
    ) -> ResilienceReport:
        from statistics import mean  # see DeploymentPlanner.evaluate

        groups = [self._group_for(spec, i) for i, spec in enumerate(specs)]
        loads = self._site_loads(specs, groups, attack)

        availabilities = []
        latencies = []
        for client in self.clients:
            # Which site (and hence drop probability / RTT) each NS
            # presents to this client.
            per_ns = []
            for index, group in enumerate(groups):
                site = group.catchment(client.location, client.address, self.latency)
                rtt = self.latency.base_rtt_ms(
                    client.location.point, site.location.point
                )
                drop = loads[(index, site.code)].drop_probability
                per_ns.append((rtt, drop))
            # Latency-ordered retry chain (resolvers fail over to the
            # next-best NS after a timeout).
            per_ns.sort()
            answered = 0.0
            expected_latency = 0.0
            cumulative_failure = 1.0
            for attempt, (rtt, drop) in enumerate(per_ns[: self.max_retries + 1]):
                success_here = cumulative_failure * (1.0 - drop)
                answered += success_here
                expected_latency += success_here * (
                    rtt + attempt * self.retry_penalty_ms
                )
                cumulative_failure *= drop
            availabilities.append(answered)
            if answered > 0:
                latencies.append(expected_latency / answered)
        return ResilienceReport(
            design_name=name,
            availability=mean(availabilities),
            mean_latency_ms=mean(latencies) if latencies else float("inf"),
            site_loads=list(loads.values()),
        )

    def compare(
        self,
        designs: dict[str, list[AuthoritativeSpec]],
        attack: AttackScenario,
    ) -> list[ResilienceReport]:
        """Evaluate every design under the same attack, best first."""
        reports = [
            self.evaluate(specs, attack, name=name)
            for name, specs in designs.items()
        ]
        reports.sort(key=lambda report: report.availability, reverse=True)
        return reports
