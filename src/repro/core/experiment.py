"""The paper's testbed experiment, end to end (§3.1).

One :class:`TestbedExperiment` = deploy a combination of authoritatives
for the test domain, generate the probe population, attach recursives,
and run the periodic TXT measurement.  Everything is seeded, so a given
configuration always reproduces the same observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..atlas.platform import AtlasPlatform
from ..atlas.probes import Probe, ProbeGenerator
from ..netsim.latency import LatencyModel, LatencyParameters
from ..netsim.network import SimNetwork
from ..resolvers.population import ResolverPopulation
from ..seeding import derive
from ..telemetry import NULL_TELEMETRY, RunProfiler
from .combinations import COMBINATIONS
from .deployment import AuthoritativeSpec, Deployment
from .store import MeasurementRun

DEFAULT_DOMAIN = "ourtestdomain.nl."


@dataclass
class ExperimentConfig:
    """Everything that defines one testbed run."""

    authoritatives: list[AuthoritativeSpec]
    domain: str = DEFAULT_DOMAIN
    num_probes: int = 400
    interval_s: float = 120.0
    duration_s: float = 3600.0
    seed: int = 0
    resolver_mix: dict[str, float] | None = None
    latency_params: LatencyParameters = field(default_factory=LatencyParameters)
    #: §3.1 IPv6 variant: deploy v6-only authoritatives and measure from
    #: the IPv6-capable subset of the probes.
    ipv6: bool = False
    #: fault timeline for the run: a :class:`~repro.netsim.faults.Scenario`,
    #: a bundled scenario name, or a scenario file path (None = no faults).
    scenario: object | None = None
    #: adversarial workload: an
    #: :class:`~repro.netsim.adversary.AttackProfile`, a bundled attack
    #: name, or a profile file path (None = benign campaign).
    attack: object | None = None
    #: emit a ``shard.heartbeat`` note every N measurement ticks for the
    #: live monitor (0 = off; heartbeats never enter the canonical
    #: merged event log, so results are identical either way).
    heartbeat_every_ticks: int = 0

    @classmethod
    def for_combination(cls, combo_id: str, **overrides) -> "ExperimentConfig":
        """Build the config for a Table 1 combination (e.g. '2C')."""
        combo = COMBINATIONS[combo_id]
        specs = [
            AuthoritativeSpec(name=f"ns{i + 1}", sites=(code,))
            for i, code in enumerate(combo.sites)
        ]
        return cls(authoritatives=specs, **overrides)


def generate_probes(config: ExperimentConfig) -> list[Probe]:
    """The campaign's probe population (IPv6 runs: its v6-capable subset)."""
    probes = ProbeGenerator(seed=derive(config.seed, "probes")).generate(
        config.num_probes
    )
    if config.ipv6:
        probes = [probe for probe in probes if probe.ipv6_capable]
    return probes


@dataclass
class ExperimentResult:
    """Outputs of one run, serial or sharded: client- and server-side views."""

    config: ExperimentConfig
    run: MeasurementRun
    addresses: list[str]
    site_of_address: dict[str, str]
    server_query_counts: dict[str, int]
    #: the live deployment (None after a sharded run: each shard's
    #: deployment lived and died in its worker)
    deployment: Deployment | None = None
    #: the run's telemetry bundle (NULL_TELEMETRY when not requested)
    telemetry: object = NULL_TELEMETRY
    #: wall-clock phase profile of the simulator itself (sharded: of the
    #: engine's scatter, gather and merge)
    profile: dict = field(default_factory=dict)
    #: deterministic per-query cost ledger export (empty when disabled).
    #: Sharded: identical for any worker count at a fixed shard count;
    #: template counters vary with the shard *layout* (each shard's
    #: servers warm their own caches), which is why the CI determinism
    #: step compares equal shard counts.
    costs: dict = field(default_factory=dict)
    #: scatter-gather bookkeeping (a serial run is one shard, one worker)
    workers: int = 1
    shards: int = 1
    #: each shard worker's wall-clock phase profile, in shard order
    #: (empty for a serial run)
    shard_profiles: list[dict] = field(default_factory=list)

    @property
    def observations(self):
        return self.run.observations


class TestbedExperiment:
    """Deploys, measures, and collects one experiment."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        config: ExperimentConfig,
        telemetry=None,
        probes: list[Probe] | None = None,
        shard: int | None = None,
    ):
        self.config = config
        #: shard index stamped into heartbeat notes (None = unsharded)
        self.shard = shard
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Phase timings are always collected: a handful of perf_counter
        # calls per run, and the benchmark suite consumes them.
        self.profiler = (
            self.telemetry.profiler
            if self.telemetry.profiler.enabled
            else RunProfiler()
        )
        # Component seeds derive from the config seed by *path*, never by
        # sequential draws from one root stream: construction order and
        # population sharding cannot perturb any component's randomness.
        seed = config.seed
        self.network = SimNetwork(
            latency=LatencyModel(
                config.latency_params, seed=derive(seed, "latency")
            ),
            telemetry=self.telemetry,
        )
        self.deployment = Deployment(
            config.domain, config.authoritatives, telemetry=self.telemetry
        )
        self.population = ResolverPopulation(
            config.resolver_mix, seed=derive(seed, "population")
        )
        self.platform_seed = derive(seed, "platform")
        self.fault_seed = derive(seed, "faults")
        self.attack_seed = derive(seed, "attack")
        #: the compiled fault plan, set by :meth:`run` when a scenario
        #: is configured (None before the run or without one)
        self.fault_plan = None
        #: the compiled attack plan, set by :meth:`run` when an attack
        #: is configured (None before the run or without one)
        self.attack_plan = None
        #: pre-generated probe subset (shard workers); None = generate all
        self._probes = probes

    def _fault_scenario(self):
        """The run's Scenario, resolving names/paths against the duration."""
        scenario = self.config.scenario
        if scenario is None or not isinstance(scenario, str):
            return scenario
        from ..netsim.faults import resolve_scenario

        return resolve_scenario(scenario, self.config.duration_s)

    def _attack_profile(self):
        """The run's AttackProfile, resolving bundled names/paths."""
        attack = self.config.attack
        if attack is None or not isinstance(attack, str):
            return attack
        from ..netsim.adversary import resolve_attack

        return resolve_attack(attack)

    def run(self) -> ExperimentResult:
        profiler = self.profiler
        events = self.telemetry.events
        # The deterministic cost ledger (a no-op unless requested)
        # scopes to the same phase names as `profiler`.
        costs = self.telemetry.costs
        scenario = self._fault_scenario()
        attack = self._attack_profile()
        if events.enabled:
            from ..telemetry import RunMeta

            events.emit(RunMeta(run={
                "domain": self.config.domain,
                "sites": [list(spec.sites) for spec in self.config.authoritatives],
                "num_probes": self.config.num_probes,
                "interval_s": self.config.interval_s,
                "duration_s": self.config.duration_s,
                "seed": self.config.seed,
                "ipv6": self.config.ipv6,
                "scenario": scenario.name if scenario is not None else None,
                "attack": attack.name if attack is not None else None,
            }))
        base = "2001:db8:53" if self.config.ipv6 else "10.0"
        with profiler.phase("experiment.deploy"), \
                costs.phase("experiment.deploy"):
            addresses = self.deployment.deploy(self.network, base_address=base)
        if scenario is not None:
            from ..netsim.faults import FaultPlan

            self.fault_plan = FaultPlan(
                scenario,
                seed=self.fault_seed,
                addresses={
                    spec.name: address
                    for spec, address in zip(
                        self.config.authoritatives, addresses
                    )
                },
            )
            self.network.faults = self.fault_plan
            if events.enabled:
                # The timeline is data, known a priori: emitting the
                # transitions here (not when exchanges observe them)
                # keeps the merged parallel log byte-identical.
                from ..telemetry import Note

                for at, name, data in self.fault_plan.transitions():
                    events.emit(Note(name=name, data=data, at=at))
        if attack is not None:
            from ..netsim.adversary import AttackPlan

            self.attack_plan = AttackPlan(
                attack,
                seed=self.attack_seed,
                duration_s=self.config.duration_s,
                victim_domain=self.config.domain,
            )
            # The attacker's authoritative (delegation bombs) joins the
            # testbed at a fixed address outside the victim's range.
            self.attack_plan.deploy(self.network, telemetry=self.telemetry)
            limiter_factory = self.attack_plan.rate_limiter_factory()
            if limiter_factory is not None:
                # RRL on the victim's authoritatives: each engine gets
                # its own limiter (per-site state, like real deployments).
                for deployed in self.deployment.deployed:
                    for engine in deployed.engines.values():
                        engine.rate_limiter = limiter_factory()
            if events.enabled:
                # Like fault transitions: the attack window is data
                # known a priori, so the notes are emitted up front and
                # survive the canonical parallel merge.
                from ..telemetry import Note

                for at, name, data in self.attack_plan.transitions():
                    events.emit(Note(name=name, data=data, at=at))
        with profiler.phase("experiment.probes"), \
                costs.phase("experiment.probes"):
            if self._probes is not None:
                probes = list(self._probes)
            else:
                probes = generate_probes(self.config)
        platform = AtlasPlatform(
            self.network, probes, self.population, seed=self.platform_seed,
            telemetry=self.telemetry,
            resolver_options=(
                self.attack_plan.resolver_options()
                if self.attack_plan is not None
                else None
            ),
        )
        platform.attack_plan = self.attack_plan
        with profiler.phase("experiment.build_vps"), \
                costs.phase("experiment.build_vps"):
            platform.build_vantage_points()
            platform.configure_zone(self.config.domain, addresses)
            if self.attack_plan is not None:
                stub = self.attack_plan.stub_zone()
                if stub is not None:
                    platform.configure_zone(stub[0], stub[1])
        with profiler.phase("experiment.measure"), \
                costs.phase("experiment.measure"):
            run = platform.measure(
                self.config.domain.rstrip("."),
                interval_s=self.config.interval_s,
                duration_s=self.config.duration_s,
                heartbeat_every=self.config.heartbeat_every_ticks,
                shard=self.shard,
            )
        profiler.record("config.combo_sites", [
            list(spec.sites) for spec in self.config.authoritatives
        ])
        profiler.record("config.num_probes", self.config.num_probes)
        profiler.record("config.seed", self.config.seed)
        profiler.count("experiment.runs")
        profiler.count("experiment.observations", len(run.store))
        if events.enabled:
            # Close out the log: end-state metrics + the phase profile.
            # (The writer stays open so callers can append more events.)
            self.telemetry.finalize_events(at=self.network.clock.now)
        return ExperimentResult(
            config=self.config,
            run=run,
            addresses=addresses,
            site_of_address=self.deployment.site_of_address(),
            server_query_counts=self.deployment.server_query_counts(),
            deployment=self.deployment,
            telemetry=self.telemetry,
            profile=profiler.as_dict(),
            costs=costs.as_dict() if costs.enabled else {},
        )


def run_campaign(
    config: ExperimentConfig,
    *,
    telemetry=None,
    workers: int = 1,
    shards: int | None = None,
    spill_dir=None,
) -> ExperimentResult:
    """Run one campaign: the single place that picks serial or sharded.

    ``workers > 1`` or a shard count routes through the sharded engine
    (:func:`repro.core.parallel.run_parallel`; ``shards`` None or 0 =
    one per worker, ``spill_dir`` bounds worker memory there); anything
    else is one in-process :class:`TestbedExperiment`.  The merged
    result is identical to the serial one for any worker count.
    """
    # ``!= 1``, not ``> 1``: a worker count below one goes to the engine
    # that rejects it instead of quietly running serially.
    if workers != 1 or shards:
        from .parallel import run_parallel

        return run_parallel(
            config,
            workers=workers,
            shards=shards or None,
            telemetry=telemetry,
            spill_dir=spill_dir,
        )
    return TestbedExperiment(config, telemetry=telemetry).run()


def run_combination(
    combo_id: str, telemetry=None, workers: int = 1, **overrides
) -> ExperimentResult:
    """Convenience: :func:`run_campaign` for one Table 1 combination."""
    return run_campaign(
        ExperimentConfig.for_combination(combo_id, **overrides),
        telemetry=telemetry,
        workers=workers,
    )
