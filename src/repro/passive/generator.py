"""Synthetic production-traffic generator behind the Figure 7 analyses.

Simulates a population of long-running recursive resolvers querying a
fixed server set (root letters or TLD NSes).  Each recursive reuses the
*same* selection and infrastructure-cache code as the testbed
experiments; what differs from §3.1 is exactly what differs in the
paper's passive data: caches are warm (a warm-up phase precedes the
capture window), query rates are the recursives' own (heavy-tailed), and
only a subset of servers is observed.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..netsim.anycast import AnycastGroup, AnycastSite
from ..netsim.geo import ATLAS_CONTINENT_WEIGHTS, Continent, Location, cities_by_continent
from ..netsim.latency import LatencyModel
from ..resolvers.infracache import InfrastructureCache
from ..resolvers.population import INFRA_TTL_S, ResolverPopulation

if TYPE_CHECKING:
    from .trace import Trace

#: Recursives are named inside 198.18.0.0/15 (RFC 2544), 250 a /24.
MAX_RECURSIVES = 2 * 256 * 250


@dataclass(frozen=True)
class ServerSet:
    """The authoritative set of a production zone (e.g. the 13 root letters)."""

    zone: str
    sites_by_server: dict[str, tuple[Location, ...]]  # server_id -> its sites
    observed: tuple[str, ...]                          # servers with captures

    def __post_init__(self):
        missing = set(self.observed) - set(self.sites_by_server)
        if missing:
            raise ValueError(f"observed servers not in set: {sorted(missing)}")

    @property
    def server_ids(self) -> list[str]:
        return list(self.sites_by_server)


@dataclass
class GeneratorConfig:
    """Knobs of the synthetic capture."""

    num_recursives: int = 400
    warmup_s: float = 1800.0
    capture_s: float = 3600.0
    mean_queries_per_hour: float = 250.0
    rate_sigma: float = 1.0          # lognormal sigma of per-recursive rates
    seed: int = 0
    resolver_mix: dict[str, float] | None = None
    selector_overrides: dict[str, dict] | None = None
    continent_weights: dict[Continent, float] | None = None
    #: lognormal sigma of stable per-(recursive, server) path diversity:
    #: BGP peering makes the same anycast service fast for one network
    #: and slow for its neighbor.  0 disables.
    peering_sigma: float = 0.0
    #: probability that any given anycast *site* of an observed server is
    #: part of the capture.  DITL never covers every instance of every
    #: letter; queries landing on uncaptured sites are invisible.
    capture_coverage: float = 1.0
    #: diurnal traffic modulation: per-recursive query rates scale with
    #: local time of day (amplitude 0 disables).  The paper argues (§3.1)
    #: that selection is unlikely to be affected by diurnal factors — a
    #: testable claim here.
    diurnal_amplitude: float = 0.0
    #: UTC hour at which the capture window starts (paper: 12:00 UTC).
    capture_utc_hour: float = 12.0


def recursive_address(index: int) -> str:
    """The source address of recursive ``index``: 198.18.0.1 upward."""
    if not 0 <= index < MAX_RECURSIVES:
        raise ValueError(
            f"recursive {index} is outside 198.18.0.0/15 "
            f"(at most {MAX_RECURSIVES} recursives)"
        )
    block, host = divmod(index, 250)
    return f"198.{18 + block // 256}.{block % 256}.{host + 1}"


def _no_handler(*_args) -> None:
    """Site handler of a passive capture: nothing is ever delivered."""


class PassiveTraceGenerator:
    """Produces a :class:`Trace` for one :class:`ServerSet`."""

    def __init__(self, servers: ServerSet, config: GeneratorConfig | None = None):
        self.servers = servers
        self.config = config if config is not None else GeneratorConfig()
        root = random.Random(self.config.seed)
        self.rng = random.Random(root.randrange(2**63))
        self.latency = LatencyModel(rng=random.Random(root.randrange(2**63)))
        self.population = ResolverPopulation(
            self.config.resolver_mix,
            rng=random.Random(root.randrange(2**63)),
            selector_overrides=self.config.selector_overrides,
        )
        self._groups: dict[str, AnycastGroup] = {
            server_id: self._make_group(server_id, sites)
            for server_id, sites in servers.sites_by_server.items()
        }
        capture_rng = random.Random(root.randrange(2**63))
        self._captured_sites: dict[str, set[str]] = {}
        for server_id, sites in servers.sites_by_server.items():
            captured = {
                site.code
                for site in sites
                if capture_rng.random() < self.config.capture_coverage
            }
            if not captured:  # a capture of a server covers at least one site
                captured = {capture_rng.choice(sites).code}
            self._captured_sites[server_id] = captured

    def _make_group(
        self, server_id: str, sites: tuple[Location, ...]
    ) -> AnycastGroup:
        group = AnycastGroup(f"{self.servers.zone}-{server_id}")
        for site in sites:
            group.add_site(AnycastSite(site.code, site, _no_handler))
        return group

    def _recursive_location(self) -> Location:
        weights = dict(
            ATLAS_CONTINENT_WEIGHTS
            if self.config.continent_weights is None
            else self.config.continent_weights
        )
        continents = list(weights)
        continent = self.rng.choices(
            continents, weights=[weights[c] for c in continents], k=1
        )[0]
        return self.rng.choice(cities_by_continent(continent))

    def _paths(
        self, location: Location, client_key: str
    ) -> tuple[dict[str, float], set[str]]:
        """One recursive's path to every server, from one catchment each.

        Returns the deterministic RTT per server (via its anycast
        catchment, with stable per-(recursive, server) peering diversity
        on top) and the observed servers whose catchment site is part of
        the capture: whether this recursive's queries to a server are
        seen depends on which site its (stable) catchment lands on.
        """
        rtts = {}
        captured = set()
        observed = self.servers.observed
        for server_id, group in self._groups.items():
            site = group.catchment(location, client_key, self.latency)
            rtt = self.latency.base_rtt_ms(location.point, site.location.point)
            if self.config.peering_sigma > 0.0:
                draw = random.Random(f"{client_key}|{server_id}|peering")
                rtt *= math.exp(draw.gauss(0.0, self.config.peering_sigma))
            rtts[server_id] = rtt
            if server_id in observed and site.code in self._captured_sites[server_id]:
                captured.add(server_id)
        return rtts, captured

    def generate(self) -> Trace:
        """Run warm-up plus capture; the trace covers observed servers only.

        Each recursive's captured queries land in the columns as one
        time-ordered run; a stable k-way merge of the runs then gives the
        capture's time order (ties in recursive order) without a
        full-length key list.
        """
        # The trace and its column machinery load with the first capture,
        # not with this module: building a generator needs neither, and
        # loading them before it moved a gen-0 collection into the build.
        from ..core.columns import permute
        from .trace import Trace

        config = self.config
        if config.num_recursives > MAX_RECURSIVES:
            raise ValueError(
                f"{config.num_recursives} recursives: at most {MAX_RECURSIVES} "
                "fit in 198.18.0.0/15"
            )
        server_ids = self.servers.server_ids
        trace = Trace(observed_servers=self.servers.observed)
        intern = trace.strings.intern
        server_code = {server: intern(server) for server in trace.observed_servers}
        stamps, servers, owners = array("d"), array("i"), array("i")
        add_stamp, add_server = stamps.append, servers.append
        runs: list[range] = []
        rng = self.rng
        expovariate, gauss, exp = rng.expovariate, rng.gauss, math.exp
        is_lost = self.latency.is_lost
        jitter_sigma = self.latency.params.jitter_sigma
        end = config.capture_s

        for index in range(config.num_recursives):
            address = recursive_address(index)
            location = self._recursive_location()
            sample = self.population.sample()
            select = sample.selector.select
            on_response = sample.selector.on_response
            on_timeout = sample.selector.on_timeout
            cache = InfrastructureCache(
                ttl_s=INFRA_TTL_S.get(sample.impl_name, 600.0)
            )
            rtts, captured = self._paths(location, address)
            rate_per_s = (
                config.mean_queries_per_hour
                * exp(gauss(0.0, config.rate_sigma))
                / 3600.0
            )
            if config.diurnal_amplitude > 0.0:
                # Local time from longitude; traffic peaks mid-afternoon.
                local_hour = (
                    config.capture_utc_hour + location.point.lon / 15.0
                ) % 24.0
                modulation = 1.0 + config.diurnal_amplitude * math.sin(
                    2.0 * math.pi * (local_hour - 9.0) / 24.0
                )
                rate_per_s *= max(0.05, modulation)
            start = len(stamps)
            now = -config.warmup_s
            while now < end:
                now += expovariate(rate_per_s) if rate_per_s > 0 else end
                if now >= end:
                    break
                choice = select(server_ids, cache, now)
                if is_lost():
                    on_timeout(choice, server_ids, cache, now)
                    continue
                rtt = rtts[choice] * exp(gauss(0.0, jitter_sigma))
                on_response(choice, rtt, server_ids, cache, now)
                if now >= 0.0 and choice in captured:
                    add_stamp(now)
                    add_server(server_code[choice])
            if len(stamps) > start:
                owners.extend(array("i", [intern(address)]) * (len(stamps) - start))
                runs.append(range(start, len(stamps)))

        order = array("i", heapq.merge(*runs, key=stamps.__getitem__))
        # Each run-order column is dropped once its capture-order one is
        # built, so at most one column is held twice.
        del add_stamp, add_server
        trace.timestamps = permute(stamps, order)
        del stamps
        trace.recursive = permute(owners, order)
        del owners
        trace.server_id = permute(servers, order)
        del servers
        # Generated queries carry no name of their own and are all type A.
        trace.qname = array("i", [intern("")]) * len(order)
        trace.qtype = array("i", [intern("A")]) * len(order)
        return trace
