"""Deployment planner: the paper's §7 recommendation, made executable.

Given a candidate NS-set design (which authoritatives are unicast, which
are anycast and where), and a client population, the planner computes the
latency a recursive population will actually experience — using the
paper's central finding that *every* NS keeps receiving queries: roughly
half of recursives chase the fastest NS, the rest spread queries.

The headline metric is therefore not "latency of the best NS" but the
selection-weighted expectation, and the worst-case is bounded by the
slowest NS — the least-anycast one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..atlas.probes import Probe
from ..netsim.anycast import AnycastGroup, AnycastSite
from ..netsim.geo import DATACENTERS
from ..netsim.latency import LatencyModel
from .deployment import AuthoritativeSpec


@dataclass(frozen=True)
class SelectionModel:
    """Aggregate recursive behavior, distilled from §4.

    ``latency_sensitive_share`` of queries go to the lowest-RTT NS; the
    remainder are spread uniformly over all NSes.  Defaults follow the
    paper's observation that about half of recursives prefer by latency
    and most recursives send some queries everywhere.
    """

    latency_sensitive_share: float = 0.5

    def ns_weights(self, rtts: list[float]) -> list[float]:
        """Fraction of a client's queries that each NS receives."""
        if not rtts:
            raise ValueError("no name servers")
        count = len(rtts)
        uniform = (1.0 - self.latency_sensitive_share) / count
        weights = [uniform] * count
        weights[rtts.index(min(rtts))] += self.latency_sensitive_share
        return weights


@dataclass
class ClientLatency:
    """Latency figures for one client under one design."""

    expected_ms: float   # selection-weighted mean over NSes
    best_ms: float       # the fastest NS (ideal recursive)
    worst_ms: float      # the slowest NS (tail queries land here)


@dataclass
class DeploymentEvaluation:
    """Population-level latency summary for one design."""

    name: str
    specs: list[AuthoritativeSpec]
    clients: int
    mean_expected_ms: float
    median_expected_ms: float
    p90_expected_ms: float
    mean_best_ms: float
    mean_worst_ms: float
    per_client: list[ClientLatency] = field(repr=False, default_factory=list)

    @property
    def anycast_count(self) -> int:
        return sum(spec.is_anycast for spec in self.specs)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class DeploymentPlanner:
    """Evaluates and ranks NS-set designs for a client population."""

    def __init__(
        self,
        clients: list[Probe],
        latency: LatencyModel | None = None,
        selection: SelectionModel | None = None,
    ):
        if not clients:
            raise ValueError("planner needs at least one client")
        self.clients = clients
        self.latency = latency if latency is not None else LatencyModel()
        self.selection = selection if selection is not None else SelectionModel()

    # -- RTT building blocks ------------------------------------------------

    def ns_rtt_ms(
        self, client: Probe, spec: AuthoritativeSpec, ns_index: int
    ) -> float:
        """Deterministic RTT from a client to one NS of the design."""
        if not spec.is_anycast:
            site = DATACENTERS[spec.sites[0]]
            return self.latency.base_rtt_ms(client.location.point, site.point)
        group = AnycastGroup(f"planner-{ns_index}", suboptimal_rate=spec.suboptimal_rate)
        for code in spec.sites:
            group.add_site(AnycastSite(code, DATACENTERS[code], lambda *a: None))
        site = group.catchment(client.location, client.address, self.latency)
        return self.latency.base_rtt_ms(client.location.point, site.location.point)

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self, specs: list[AuthoritativeSpec], name: str = "design"
    ) -> DeploymentEvaluation:
        # statistics loads decimal and fractions: only the §7 tools
        # should pay for that, not every `import repro`.
        from statistics import mean, median

        per_client: list[ClientLatency] = []
        for client in self.clients:
            rtts = [
                self.ns_rtt_ms(client, spec, index)
                for index, spec in enumerate(specs)
            ]
            weights = self.selection.ns_weights(rtts)
            expected = sum(w * rtt for w, rtt in zip(weights, rtts))
            per_client.append(
                ClientLatency(
                    expected_ms=expected, best_ms=min(rtts), worst_ms=max(rtts)
                )
            )
        expected = [c.expected_ms for c in per_client]
        return DeploymentEvaluation(
            name=name,
            specs=list(specs),
            clients=len(per_client),
            mean_expected_ms=mean(expected),
            median_expected_ms=median(expected),
            p90_expected_ms=_percentile(expected, 0.90),
            mean_best_ms=mean(c.best_ms for c in per_client),
            mean_worst_ms=mean(c.worst_ms for c in per_client),
            per_client=per_client,
        )

    def rank(
        self, designs: dict[str, list[AuthoritativeSpec]]
    ) -> list[DeploymentEvaluation]:
        """Evaluate every design, best mean expected latency first."""
        evaluations = [
            self.evaluate(specs, name=name) for name, specs in designs.items()
        ]
        evaluations.sort(key=lambda ev: ev.mean_expected_ms)
        return evaluations


def sidn_style_designs(
    anycast_sites: tuple[str, ...] = ("FRA", "IAD", "SYD", "GRU"),
    home_site: str = "FRA",
    ns_count: int = 4,
    suboptimal_rate: float = 0.0,
) -> dict[str, list[AuthoritativeSpec]]:
    """The §7 case study as a design sweep: 0..ns_count anycast NSes.

    ``all-unicast`` models the .nl situation the paper critiques (all
    NSes at home); each step converts one more unicast NS into an anycast
    service; ``all-anycast`` is the paper's recommendation.  The default
    assumes well-engineered anycast (every client reaches its nearest
    site, per Schmidt et al. [25]); raise ``suboptimal_rate`` to study
    imperfect catchments (the ablation in ``bench_rec_planner``).
    """
    designs: dict[str, list[AuthoritativeSpec]] = {}
    for anycast_count in range(ns_count + 1):
        specs = []
        for index in range(ns_count):
            if index < anycast_count:
                specs.append(
                    AuthoritativeSpec(
                        name=f"ns{index + 1}",
                        sites=anycast_sites,
                        suboptimal_rate=suboptimal_rate,
                    )
                )
            else:
                specs.append(
                    AuthoritativeSpec(name=f"ns{index + 1}", sites=(home_site,))
                )
        if anycast_count == 0:
            label = "all-unicast"
        elif anycast_count == ns_count:
            label = "all-anycast"
        else:
            label = f"{anycast_count}-of-{ns_count}-anycast"
        designs[label] = specs
    return designs
