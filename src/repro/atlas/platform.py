"""The measurement platform: vantage points querying through recursives.

A :class:`VantagePoint` is a (probe, recursive) pair — the unit of
analysis in the paper (§3.1).  :class:`AtlasPlatform` builds the
recursive resolvers for a probe set from a population mix, wires them to
the simulated network, and runs the periodic TXT measurement with
cache-busting unique labels.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass

from ..core.store import (
    MeasurementRun,
    ObservationStore,
    QueryObservation,
)
from ..dns.name import Name
from ..dns.types import RRType
from ..netsim.geo import Continent, cities_by_continent
from ..netsim.network import SimNetwork
from ..netsim.sched import EventKernel
from ..resolvers.population import ResolverPopulation
from ..resolvers.resolver import RecursiveResolver
from ..seeding import derive_rng, derive_stream
from ..telemetry import NULL_TELEMETRY
from .probes import Probe

#: vp_id = probe_id * VPS_PER_PROBE + ordinal — derivable from the probe
#: alone, so shard workers assign the same ids the serial run would.
VPS_PER_PROBE = 2


class _Query:
    """One VP's query of one tick, from issue until its row is stored.

    It is the resolution's ``done`` callback: calling it with the result
    hands itself to ``finish``, which fills :attr:`outcome` and appends
    finished ticks to the store in issue order.
    """

    __slots__ = ("finish", "tick", "label", "sid", "outcome")

    def __init__(self, finish, tick: int, label: bytes, sid: int):
        self.finish = finish
        self.tick = tick
        self.label = label
        self.sid = sid

    def __call__(self, result) -> None:
        self.finish(self, result)


@dataclass(frozen=True, slots=True)
class VantagePoint:
    """One (probe, recursive) pair — a VP in the paper's terminology."""

    vp_id: int
    probe: Probe
    resolver: RecursiveResolver
    impl_name: str  # ground truth, invisible to the paper's methodology

    @property
    def continent(self) -> Continent:
        return self.probe.continent


class AtlasPlatform:
    """Builds vantage points and runs measurements against a deployment."""

    def __init__(
        self,
        network: SimNetwork,
        probes: list[Probe],
        population: ResolverPopulation,
        rng: random.Random | None = None,
        second_resolver_share: float = 0.12,
        remote_resolver_share: float = 0.20,
        resolver_sharing_share: float = 0.25,
        public_services: list | None = None,
        public_resolver_share: float = 0.0,
        telemetry=None,
        seed: int | None = None,
        resolver_options: dict | None = None,
    ):
        self.network = network
        self.probes = probes
        self.population = population
        if telemetry is None:
            telemetry = getattr(network, "telemetry", None)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Every stochastic decision derives from (seed, probe/vp path),
        # never from a shared sequential stream — this is what makes a
        # probe's vantage points identical whether the platform holds
        # the whole population or one shard of it.  ``rng`` remains as a
        # compatibility spelling: it contributes only the seed.
        if seed is None:
            seed = (rng if rng is not None else random.Random(0)).getrandbits(63)
        self.seed = seed
        self.rng = rng if rng is not None else derive_rng(seed, "platform.shared")
        self.second_resolver_share = second_resolver_share
        self.remote_resolver_share = remote_resolver_share
        self.resolver_sharing_share = resolver_sharing_share
        self.public_services = list(public_services or [])
        self.public_resolver_share = public_resolver_share
        if self.public_resolver_share > 0.0 and not self.public_services:
            raise ValueError("public_resolver_share needs public_services")
        #: extra RecursiveResolver kwargs applied to every ISP resolver
        #: (e.g. MaxFetch mitigations during adversarial campaigns).
        self.resolver_options = dict(resolver_options or {})
        #: compiled :class:`repro.netsim.adversary.AttackPlan` driving a
        #: botnet subset of VPs (None = benign campaign).
        self.attack_plan = None
        self.vantage_points: list[VantagePoint] = []
        self._resolver_by_as: dict[int, RecursiveResolver] = {}
        self._impl_by_resolver: dict[str, str] = {}

    # -- construction -------------------------------------------------------

    def _new_resolver(
        self, probe: Probe, ordinal: int, rng: random.Random
    ) -> tuple[RecursiveResolver, str]:
        """Create a recursive near the probe (ISP resolver model).

        Address, implementation draw, and internal streams all derive
        from (probe id, ordinal), so the resolver is bit-identical no
        matter how many other probes exist or which shard builds it.
        ``rng`` is the probe's decision stream (placement draws only).
        """
        sample = self.population.sample(
            rng=derive_rng(self.seed, "impl", probe.probe_id, ordinal),
            selector_rng=derive_stream(self.seed, "selector", probe.probe_id, ordinal),
        )
        location = probe.location
        if rng.random() < self.remote_resolver_share:
            # ISP resolver in another city on the same continent.
            location = rng.choice(cities_by_continent(probe.continent))
        address = (
            f"10.{53 + ordinal}.{probe.probe_id // 250}"
            f".{probe.probe_id % 250 + 1}"
        )
        resolver = RecursiveResolver(
            address,
            location,
            self.network,
            sample.selector,
            infra_ttl_s=sample.infra_ttl_s,
            rng=derive_stream(self.seed, "resolver", probe.probe_id, ordinal),
            **self.resolver_options,
        )
        self._impl_by_resolver[address] = sample.impl_name
        return resolver, sample.impl_name

    def build_vantage_points(self) -> list[VantagePoint]:
        """Assign recursives to probes: shared within AS, sometimes two.

        Probes are processed in probe-id order and each consults only
        its own derived stream plus per-AS sharing state.  An AS's
        probes must all be built by the same platform instance (the
        sharded engine partitions by ASN) for sharing to match a
        whole-population build.
        """
        self.vantage_points = []
        for probe in sorted(self.probes, key=lambda p: p.probe_id):
            rng = derive_rng(self.seed, "vp", probe.probe_id)
            resolvers: list[tuple[RecursiveResolver, str]] = []
            if (
                self.public_services
                and rng.random() < self.public_resolver_share
            ):
                service = rng.choice(self.public_services)
                instance = service.instance_for(probe, self.network)
                resolvers.append((instance, "public"))
            else:
                shared = self._resolver_by_as.get(probe.asn)
                if shared is not None and rng.random() < self.resolver_sharing_share:
                    resolvers.append(
                        (shared, self._impl_by_resolver[shared.address])
                    )
                else:
                    resolver, impl = self._new_resolver(probe, 0, rng)
                    self._resolver_by_as.setdefault(probe.asn, resolver)
                    resolvers.append((resolver, impl))
                if rng.random() < self.second_resolver_share:
                    resolver, impl = self._new_resolver(probe, 1, rng)
                    resolvers.append((resolver, impl))
            for ordinal, (resolver, impl) in enumerate(resolvers):
                vp_id = probe.probe_id * VPS_PER_PROBE + ordinal
                self.vantage_points.append(
                    VantagePoint(vp_id, probe, resolver, impl)
                )
        return self.vantage_points

    def configure_zone(self, origin: Name | str, addresses: list[str]) -> None:
        """Teach every vantage point's recursive the zone's NS addresses.

        Keyed by resolver *instance*, not address: anycast public
        services run many instances behind one address.  Resolvers that
        knew the same zones get one new table between them.
        """
        if isinstance(origin, str):
            origin = Name.from_text(origin)
        origin = origin.intern()  # parse once, share across all resolvers
        addresses = tuple(addresses)  # one tuple, shared as well
        tables: dict[tuple, dict] = {}
        seen: set[int] = set()
        for vp in self.vantage_points:
            resolver = vp.resolver
            if id(resolver) in seen:
                continue
            seen.add(id(resolver))
            known = tuple(resolver.stub_zones.items())
            table = tables.get(known)
            if table is None:
                resolver.add_stub_zone(origin, addresses)
                tables[known] = resolver.stub_zones
            else:
                resolver.stub_zones = table

    # -- measurement ------------------------------------------------------------

    def _profiled_vps(
        self, store: ObservationStore
    ) -> list[tuple[VantagePoint, int]]:
        """Pair each VP with its store profile id, registered once.

        The profile carries the VP's constant columns (probe id,
        recursive address, implementation, continent), so the per-query
        record is a handful of scalar appends.
        """
        return [
            (
                vp,
                store.profile_id(
                    vp.probe.probe_id,
                    vp.resolver.address,
                    vp.impl_name,
                    vp.continent,
                ),
            )
            for vp in self.vantage_points
        ]

    def _observe(self, result) -> tuple:
        """One finished resolution as the store's per-row outcome columns
        ``(site, address, rtt_ms, attempts, succeeded)``, counted in the
        measurement metrics when telemetry is on."""
        site = ""
        if result.succeeded:
            marker = result.txt_value() or ""
            site = marker.rsplit("-", 1)[-1] if marker else ""
        telemetry = self.telemetry
        if telemetry.enabled:
            registry = telemetry.registry
            registry.counter(
                "measurement_queries_total",
                "measured queries, by answering NS address and site",
                ("ns", "site"),
            ).labels(ns=result.final_address or "none", site=site or "none").inc()
            if result.rtt_ms is not None:
                registry.histogram(
                    "measurement_rtt_ms",
                    "RTT of the final answering exchange (ms)",
                    ("site",),
                ).labels(site=site or "none").observe(result.rtt_ms)
            if not result.succeeded:
                registry.counter(
                    "measurement_failures_total",
                    "measurements with no successful answer",
                ).inc()
            telemetry.profiler.count("observations")
        return (
            site, result.final_address, result.rtt_ms, result.attempts,
            result.succeeded,
        )

    def measure(
        self,
        domain: str,
        interval_s: float = 120.0,
        duration_s: float = 3600.0,
        label_prefix: str = "m",
        heartbeat_every: int = 0,
        shard: int | None = None,
    ) -> MeasurementRun:
        """Run the paper's campaign: a TXT query per VP per interval.

        Labels are unique per (VP, tick) so recursive record caches never
        short-circuit a query (§3.1 "cold caches").

        The campaign is one event-kernel drain: every tick is a timer
        event issuing one query per VP (in vp_id order, which pins the
        heap's tie-break sequence), responses are delivery events and
        retries are timeout events.  The drain runs past the campaign
        end so in-flight retries finish — then the clock is brought to
        the nominal campaign end if the last event fell short of it.

        Observations draw from layout-invariant RNG streams and are
        stamped with the query *issue* time (the tick), not the
        completion time.  Completions arrive in completion order but
        rows are appended in issue order — a tick's rows once its last
        VP has finished, ticks in turn — so the store is built in the
        canonical ``(timestamp, vp_id)`` order and a serial run equals
        the sorted merge of any worker layout as it stands.  The qname
        is stored as its unique label bytes plus the interned campaign
        suffix; no qname string materializes.

        ``heartbeat_every`` > 0 emits a ``shard.heartbeat`` note to the
        event sink after every N ticks — the live monitor's progress
        feed.  Heartbeats are deterministic (virtual timestamps, tick
        counts) and the parallel engine excludes them from the
        canonical merged log, so enabling them never perturbs a result.
        The default 0 schedules nothing.
        """
        if not self.vantage_points:
            self.build_vantage_points()
        run = MeasurementRun(domain, interval_s, duration_s)
        ticks = int(duration_s // interval_s)
        self._emit_campaign_note(
            "measure.start", domain, interval_s, duration_s,
        )
        # Parse the invariant suffix once; each query name is then one
        # prepended label instead of a full text parse per query.
        suffix = Name.from_text(f"probe.{domain}").intern()
        store = run.store
        suffix_id = store.strings.intern(f".probe.{domain}")
        profiled = self._profiled_vps(store)
        costs = self.telemetry.costs
        costs_on = costs.enabled
        # Botnet membership is a pure function of (attack seed, vp_id):
        # any shard conscripts the same VPs the serial run would.
        plan = self.attack_plan
        bots = plan.bot_ids(vp.vp_id for vp, _ in profiled) if plan else frozenset()
        clock = self.network.clock
        kernel = EventKernel(clock=clock, costs=costs)
        epoch = clock.now
        observe = self._observe
        # Reorder buffer: per issued tick, its issue time and one
        # :class:`_Query` per VP (dropped once appended); ``unfinished``
        # counts the outcomes still missing.
        issued: list[tuple[float, list[_Query]] | None] = []
        unfinished = [len(profiled)] * ticks
        appended = 0

        def finish(query: _Query, result) -> None:
            nonlocal appended
            query.outcome = observe(result)
            unfinished[query.tick] -= 1
            while appended < len(issued) and not unfinished[appended]:
                now, queries = issued[appended]
                for (vp, pid), done in zip(profiled, queries):
                    store.append(
                        vp.vp_id, pid, now, done.label, done.sid, *done.outcome
                    )
                issued[appended] = None
                appended += 1

        # Each tick first moves every tracked object into the collector's
        # permanent generation, so full collections stop re-walking what
        # outlives a tick (VPs, resolvers, selectors, caches, path slots).
        # A campaign makes no reference cycles, so nothing frozen is
        # garbage only the collector could free; the drain's end unfreezes
        # it.  A caller that froze objects itself keeps its own freeze.
        freezing = not gc.get_freeze_count()

        def tick_event(tick: int) -> None:
            if freezing:
                gc.freeze()
            if costs_on:
                costs.count("timer_event")
            now = clock.now
            queries: list[_Query] = []
            issued.append((now, queries))
            attacking = plan is not None and plan.active(now - epoch)
            for vp, _ in profiled:
                if attacking and vp.vp_id in bots:
                    qname, label, s_text = plan.query_for(vp.vp_id, tick)
                    sid = store.strings.intern(s_text)
                    if costs_on:
                        costs.count("attack_query")
                else:
                    label = f"{label_prefix}-{vp.vp_id}-{tick}".encode("ascii")
                    qname, sid = suffix.child(label), suffix_id
                query = _Query(finish, tick, label, sid)
                queries.append(query)
                vp.resolver.resolve_event(qname, RRType.TXT, kernel, query)

        def heartbeat(tick: int) -> None:
            self._emit_heartbeat(tick, ticks, len(store), shard)

        for tick in range(ticks):
            kernel.call_at(epoch + tick * interval_s, tick_event, tick)
        if heartbeat_every:
            for tick in range(heartbeat_every, ticks + 1, heartbeat_every):
                kernel.call_at(epoch + tick * interval_s, heartbeat, tick)
        try:
            with self.telemetry.profiler.phase("platform.measure"):
                kernel.run()
        finally:
            if freezing:
                gc.unfreeze()
        end = epoch + ticks * interval_s
        if end > clock.now:
            clock.advance_to(end)
        self._emit_campaign_note(
            "measure.end", domain, interval_s, duration_s,
            observations=len(store),
        )
        return run

    def _emit_heartbeat(
        self, tick: int, ticks: int, observations: int, shard: int | None
    ) -> None:
        """One shard-progress note, flushed eagerly so tailers see it."""
        events = self.telemetry.events
        if not events.enabled:
            return
        from ..telemetry import Note

        events.emit(Note(
            name="shard.heartbeat",
            at=self.network.clock.now,
            data={
                "shard": int(shard or 0),
                "tick": tick,
                "ticks": ticks,
                "observations": observations,
                "vantage_points": len(self.vantage_points),
                "virtual_s": self.network.clock.now,
            },
        ))
        events.flush()

    def _emit_campaign_note(
        self, name: str, domain: str, interval_s: float, duration_s: float,
        **extra,
    ) -> None:
        """Mark campaign boundaries in the event log, when one is attached."""
        events = self.telemetry.events
        if not events.enabled:
            return
        from ..telemetry import Note

        events.emit(Note(
            name=name,
            at=self.network.clock.now,
            data={
                "domain": domain,
                "interval_s": interval_s,
                "duration_s": duration_s,
                "vantage_points": len(self.vantage_points),
                **extra,
            },
        ))
