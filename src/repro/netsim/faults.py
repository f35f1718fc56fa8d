"""Deterministic fault timelines: scheduled degradation of the network.

The paper's headline recommendation — every NS of a zone must be equally
strong, because worst-case latency is set by the weakest authoritative
(§6) — is a claim about behaviour *under degradation*.  This module
makes degradation a first-class, scriptable input: a :class:`Scenario`
is a named set of :class:`FaultEvent` windows on the virtual-time axis
(NS outages, loss-rate ramps, latency spikes, anycast site withdrawal,
rate-limit brownouts), compiled into a :class:`FaultPlan` that
:meth:`~repro.netsim.network.SimNetwork.round_trip` consults per
exchange.

Determinism is load-bearing, in three parts:

* **Activity is a pure function of (address, virtual now).**  Whether a
  fault affects an exchange depends only on the destination and the
  shared :class:`~repro.netsim.clock.SimClock` — never on how many
  other exchanges happened.
* **Probabilistic effects draw from per-(client, destination) streams**
  derived with :func:`repro.seeding.derive`, exactly like the latency
  model's pair streams: the n-th exchange of a pair sees the same fault
  draws no matter how the probe population is sharded, so serial and
  K-worker campaigns stay byte-identical.
* **Transitions are known a priori.**  The fault timeline is data, so
  event-log records for fault starts/ends are emitted from the
  scenario, not observed during the run — identical for every worker
  layout.

When no scenario is installed the engine costs one ``is None`` check
per round trip.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from ..seeding import CounterStream, derive

#: header discriminator of a scenario file.
SCENARIO_KIND = "repro-fault-scenario"
#: bump when the event field lists change incompatibly.
SCENARIO_VERSION = 1

#: the target token that expands to every NS address of the deployment.
ALL_TARGETS = "*"


class ScenarioError(ValueError):
    """The scenario (or scenario file) is malformed."""


# -- fault events -----------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled degradation window.

    ``target`` names what degrades: an NS name from the deployment
    (``"ns1"``), a concrete service address, or ``"*"`` for every NS.
    ``start``/``end`` are virtual-time seconds from campaign start.
    """

    target: str
    start: float
    end: float

    kind = "fault"

    def __post_init__(self):
        if self.start < 0.0:
            raise ScenarioError(f"{self.kind}: start {self.start} < 0")
        if self.end <= self.start:
            raise ScenarioError(
                f"{self.kind}: window [{self.start}, {self.end}) is empty"
            )

    def active(self, now: float) -> bool:
        """Whether the window covers ``now`` (half-open: start ≤ now < end)."""
        return self.start <= now < self.end

    def params(self) -> dict:
        """The event's own knobs (everything beyond target/start/end)."""
        base = {"target", "start", "end"}
        return {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if f.name not in base
        }

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "start": self.start,
            "end": self.end,
            **self.params(),
        }


@dataclass(frozen=True)
class NsOutage(FaultEvent):
    """The NS is down: every query in the window goes unanswered."""

    kind = "ns_outage"


@dataclass(frozen=True)
class LossRate(FaultEvent):
    """Extra per-round-trip loss toward the NS, optionally ramping in.

    ``ramp_s`` > 0 grows the loss linearly from 0 at ``start`` to
    ``rate`` at ``start + ramp_s`` — a congestion-onset shape rather
    than a step.
    """

    rate: float = 0.25
    ramp_s: float = 0.0

    kind = "loss"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise ScenarioError(f"loss rate {self.rate} outside (0, 1]")
        if self.ramp_s < 0.0:
            raise ScenarioError(f"ramp_s {self.ramp_s} < 0")

    def rate_at(self, now: float) -> float:
        if self.ramp_s > 0.0 and now < self.start + self.ramp_s:
            return self.rate * (now - self.start) / self.ramp_s
        return self.rate


@dataclass(frozen=True)
class LatencySpike(FaultEvent):
    """RTTs toward the NS are inflated: rtt' = rtt·multiplier + extra_ms."""

    multiplier: float = 1.0
    extra_ms: float = 0.0

    kind = "latency"

    def __post_init__(self):
        super().__post_init__()
        if self.multiplier < 1.0:
            raise ScenarioError(f"latency multiplier {self.multiplier} < 1")
        if self.extra_ms < 0.0:
            raise ScenarioError(f"extra_ms {self.extra_ms} < 0")


@dataclass(frozen=True)
class SiteWithdrawal(FaultEvent):
    """One anycast site stops announcing; catchments spill to the rest."""

    site: str = ""

    kind = "site_withdrawal"

    def __post_init__(self):
        super().__post_init__()
        if not self.site:
            raise ScenarioError("site_withdrawal needs a site code")


@dataclass(frozen=True)
class Brownout(FaultEvent):
    """Rate-limited/overloaded NS: answers only ``answer_rate`` of queries."""

    answer_rate: float = 0.5

    kind = "brownout"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.answer_rate < 1.0:
            raise ScenarioError(
                f"brownout answer_rate {self.answer_rate} outside [0, 1)"
            )


EVENT_TYPES: dict[str, type[FaultEvent]] = {
    cls.kind: cls
    for cls in (NsOutage, LossRate, LatencySpike, SiteWithdrawal, Brownout)
}


def event_from_record(record: dict) -> FaultEvent:
    """Rebuild one event from its ``to_record`` form."""
    kind = record.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ScenarioError(f"unknown fault kind {kind!r}")
    kwargs = {key: value for key, value in record.items() if key != "kind"}
    known = {f.name for f in dataclass_fields(cls)}
    unknown = set(kwargs) - known
    if unknown:
        raise ScenarioError(f"{kind}: unknown fields {sorted(unknown)}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"{kind}: {exc}") from None


# -- scenarios --------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, ordered fault timeline."""

    name: str
    events: tuple[FaultEvent, ...] = ()
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> dict:
        return {
            "kind": SCENARIO_KIND,
            "version": SCENARIO_VERSION,
            "name": self.name,
            "description": self.description,
            "events": [event.to_record() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if data.get("kind") != SCENARIO_KIND:
            raise ScenarioError(
                f"not a fault scenario (kind {data.get('kind')!r})"
            )
        version = data.get("version")
        if version != SCENARIO_VERSION:
            raise ScenarioError(
                f"scenario version {version!r}, this reader understands "
                f"{SCENARIO_VERSION}"
            )
        return cls(
            name=str(data.get("name", "unnamed")),
            description=str(data.get("description", "")),
            events=tuple(
                event_from_record(record) for record in data.get("events", ())
            ),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_scenario(path: str | Path) -> Scenario:
    """Load one scenario from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise ScenarioError("not a JSON object")
        return Scenario.from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# -- bundled scenario factories ---------------------------------------------
#
# Builtins are factories over the campaign duration so one name works at
# any scale; times in scenario *files* are absolute virtual seconds.


def ns_outage_scenario(duration_s: float, target: str = "ns1") -> Scenario:
    """The weak-NS experiment: one NS dark for the middle third."""
    return Scenario(
        name="ns-outage",
        description=f"{target} down for the middle third of the campaign",
        events=(NsOutage(target, duration_s / 3.0, 2.0 * duration_s / 3.0),),
    )


def ns_flap_scenario(
    duration_s: float, target: str = "ns1", period_s: float | None = None
) -> Scenario:
    """The NS flaps: down half of every period across the middle half."""
    period = period_s if period_s is not None else max(duration_s / 8.0, 1.0)
    begin, finish = duration_s / 4.0, 3.0 * duration_s / 4.0
    events = []
    at = begin
    while at < finish:
        events.append(NsOutage(target, at, min(at + period / 2.0, finish)))
        at += period
    return Scenario(
        name="ns-flap",
        description=f"{target} flapping (period {period:g}s) mid-campaign",
        events=tuple(events),
    )


def loss_ramp_scenario(
    duration_s: float, target: str = "ns1", rate: float = 0.5
) -> Scenario:
    """Congestion onset: loss toward the NS ramps to ``rate`` then clears."""
    start, end = duration_s / 3.0, 2.0 * duration_s / 3.0
    return Scenario(
        name="loss-ramp",
        description=f"loss toward {target} ramps to {rate:.0%} then clears",
        events=(
            LossRate(target, start, end, rate=rate, ramp_s=(end - start) / 2.0),
        ),
    )


def latency_spike_scenario(
    duration_s: float, target: str = "ns1", multiplier: float = 4.0
) -> Scenario:
    """A routing detour: RTTs toward the NS multiply for the middle third."""
    return Scenario(
        name="latency-spike",
        description=f"RTT to {target} ×{multiplier:g} for the middle third",
        events=(
            LatencySpike(
                target,
                duration_s / 3.0,
                2.0 * duration_s / 3.0,
                multiplier=multiplier,
            ),
        ),
    )


def brownout_scenario(
    duration_s: float, target: str = "ns1", answer_rate: float = 0.3
) -> Scenario:
    """Rate-limited NS: answers only ``answer_rate`` for the middle third."""
    return Scenario(
        name="brownout",
        description=(
            f"{target} rate-limited to answering {answer_rate:.0%} "
            "for the middle third"
        ),
        events=(
            Brownout(
                target,
                duration_s / 3.0,
                2.0 * duration_s / 3.0,
                answer_rate=answer_rate,
            ),
        ),
    )


#: name -> (factory over duration_s, one-line description)
BUILTIN_SCENARIOS: dict[str, tuple] = {
    "ns-outage": (
        ns_outage_scenario,
        "ns1 dark for the middle third (the weak-NS experiment)",
    ),
    "ns-flap": (
        ns_flap_scenario,
        "ns1 flapping up/down across the middle half",
    ),
    "loss-ramp": (
        loss_ramp_scenario,
        "loss toward ns1 ramps to 50% then clears",
    ),
    "latency-spike": (
        latency_spike_scenario,
        "RTT to ns1 quadruples for the middle third",
    ),
    "brownout": (
        brownout_scenario,
        "ns1 rate-limited to 30% answers for the middle third",
    ),
}


def builtin_scenario(name: str, duration_s: float) -> Scenario:
    """Instantiate a bundled scenario for a campaign of ``duration_s``."""
    try:
        factory, _ = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioError(f"no bundled scenario {name!r} (have: {known})")
    return factory(duration_s)


def resolve_scenario(name_or_path: str, duration_s: float) -> Scenario:
    """A scenario from a bundled name or a JSON file path."""
    if name_or_path in BUILTIN_SCENARIOS:
        return builtin_scenario(name_or_path, duration_s)
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path)
    raise ScenarioError(
        f"{name_or_path!r} is neither a bundled scenario "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor a scenario file"
    )


# -- the compiled plan ------------------------------------------------------


@dataclass(frozen=True)
class ActiveFaults:
    """Everything degrading one destination address at one instant."""

    outage: bool = False
    loss_rate: float = 0.0
    latency_multiplier: float = 1.0
    latency_extra_ms: float = 0.0
    answer_rate: float = 1.0
    withdrawn: frozenset = frozenset()


class FaultPlan:
    """A scenario bound to concrete addresses and a seed, query-time ready.

    Built once per run (see :class:`~repro.core.experiment
    .TestbedExperiment`); the network asks :meth:`active` per exchange
    and :meth:`pair_draw` for probabilistic effects.  Lookup is a bisect
    into the address's precomputed window boundaries with the resolved
    state memoized per segment, so a fault-heavy campaign pays a dict
    hit per exchange, not a timeline scan.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        addresses: dict[str, str] | None = None,
        all_addresses: list[str] | None = None,
    ):
        """``addresses`` maps target tokens (NS names) to service
        addresses; unmapped targets are taken as literal addresses.
        ``all_addresses`` is what ``"*"`` expands to (defaults to every
        mapped address)."""
        self.scenario = scenario
        self.seed = int(seed)
        mapping = dict(addresses or {})
        universe = (
            list(all_addresses)
            if all_addresses is not None
            else sorted(set(mapping.values()))
        )
        self._events: dict[str, list[FaultEvent]] = {}
        for event in scenario.events:
            if event.target == ALL_TARGETS:
                targets = universe
                if not targets:
                    raise ScenarioError(
                        "'*' target needs a deployment address list"
                    )
            else:
                targets = [mapping.get(event.target, event.target)]
            for address in targets:
                self._events.setdefault(address, []).append(event)
        # Per-address segment boundaries: state is constant between two
        # consecutive boundaries (ramp ends are boundaries too, so only
        # in-ramp segments need per-now evaluation).
        self._boundaries: dict[str, list[float]] = {}
        for address, events in self._events.items():
            marks = set()
            for event in events:
                marks.add(event.start)
                marks.add(event.end)
                ramp = getattr(event, "ramp_s", 0.0)
                if ramp > 0.0:
                    marks.add(min(event.start + ramp, event.end))
            self._boundaries[address] = sorted(marks)
        self._segments: dict[tuple[str, int], tuple] = {}
        self._pair_streams: dict[tuple[str, str], int] = {}  # stream states

    # -- query-time surface ------------------------------------------------

    def active(self, address: str, now: float) -> ActiveFaults | None:
        """The faults degrading ``address`` at ``now`` (None when clean)."""
        boundaries = self._boundaries.get(address)
        if boundaries is None:
            return None
        segment = bisect_right(boundaries, now)
        key = (address, segment)
        cached = self._segments.get(key, False)
        if cached is False:
            cached = self._resolve(address, now)
            self._segments[key] = cached
        state, ramps = cached
        if not ramps:
            return state
        # In-ramp segment: the loss figure varies continuously with now.
        loss = (state.loss_rate if state is not None else 0.0) + sum(
            event.rate_at(now) for event in ramps
        )
        base = state if state is not None else ActiveFaults()
        return ActiveFaults(
            outage=base.outage,
            loss_rate=min(loss, 1.0),
            latency_multiplier=base.latency_multiplier,
            latency_extra_ms=base.latency_extra_ms,
            answer_rate=base.answer_rate,
            withdrawn=base.withdrawn,
        )

    def _resolve(self, address: str, now: float) -> tuple:
        """(static ActiveFaults | None, in-ramp LossRate events) at ``now``."""
        outage = False
        loss = 0.0
        multiplier = 1.0
        extra_ms = 0.0
        answer = 1.0
        withdrawn = set()
        ramps = []
        for event in self._events[address]:
            if not event.active(now):
                continue
            if isinstance(event, NsOutage):
                outage = True
            elif isinstance(event, LossRate):
                if event.ramp_s > 0.0 and now < event.start + event.ramp_s:
                    ramps.append(event)
                else:
                    loss += event.rate
            elif isinstance(event, LatencySpike):
                multiplier *= event.multiplier
                extra_ms += event.extra_ms
            elif isinstance(event, SiteWithdrawal):
                withdrawn.add(event.site)
            elif isinstance(event, Brownout):
                answer = min(answer, event.answer_rate)
        if (
            not outage
            and loss == 0.0
            and multiplier == 1.0
            and extra_ms == 0.0
            and answer == 1.0
            and not withdrawn
            and not ramps
        ):
            return None, ()
        state = ActiveFaults(
            outage=outage,
            loss_rate=min(loss, 1.0),
            latency_multiplier=multiplier,
            latency_extra_ms=extra_ms,
            answer_rate=answer,
            withdrawn=frozenset(withdrawn),
        )
        return state, tuple(ramps)

    def pair_draw(self, client_key: str, address: str) -> float:
        """The (client, destination) fault stream's next uniform: its n-th
        draw is a function of (seed, client, destination, n)."""
        key = (client_key, address)
        state = self._pair_streams.get(key)
        if state is None:
            state = derive(self.seed, "faults.pair", client_key, address)
        stream = CounterStream(state)
        draw = stream.random()
        self._pair_streams[key] = stream.state
        return draw

    # -- timeline surface --------------------------------------------------

    def transitions(self) -> list[tuple[float, str, dict]]:
        """Every fault start/end as (virtual at, note name, data).

        Derived from the scenario alone — identical for any worker
        layout — so run drivers can put fault markers in the event log
        without breaking serial/parallel byte-identity.
        """
        out = []
        for address in sorted(self._events):
            for event in self._events[address]:
                head = {
                    "fault": event.kind,
                    "address": address,
                    "target": event.target,
                }
                out.append(
                    (event.start, "fault.start", {**head, **event.params()})
                )
                out.append((event.end, "fault.end", dict(head)))
        out.sort(key=lambda t: (t[0], t[1], json.dumps(t[2], sort_keys=True)))
        return out

    def addresses(self) -> list[str]:
        """Every address the plan can degrade."""
        return sorted(self._events)

    def __repr__(self) -> str:
        return (
            f"FaultPlan({self.scenario.name!r}, seed={self.seed}, "
            f"addresses={self.addresses()})"
        )


__all__ = [
    "ALL_TARGETS",
    "ActiveFaults",
    "BUILTIN_SCENARIOS",
    "Brownout",
    "EVENT_TYPES",
    "FaultEvent",
    "FaultPlan",
    "LatencySpike",
    "LossRate",
    "NsOutage",
    "SCENARIO_KIND",
    "SCENARIO_VERSION",
    "Scenario",
    "ScenarioError",
    "SiteWithdrawal",
    "brownout_scenario",
    "builtin_scenario",
    "event_from_record",
    "latency_spike_scenario",
    "load_scenario",
    "loss_ramp_scenario",
    "ns_flap_scenario",
    "ns_outage_scenario",
    "resolve_scenario",
]
