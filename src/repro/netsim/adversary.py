"""Deterministic adversarial DNS workloads (the NXNSAttack family).

The paper's §7 resilience argument is probed here with the sharper
threats described in PAPERS.md's NXNSAttack paper:

* **Delegation bombs** — a malicious zone whose delegations fan out to
  N glueless, out-of-bailiwick NS targets under the *victim* zone.  A
  recursive that chases those targets amplifies one client query into
  up to N NS-resolution fetches against the victim's authoritatives
  (``RecursiveResolver.max_fetch`` is the MaxFetch-style mitigation).
* **Random-subdomain water torture** — streams of unique nonexistent
  names under the victim zone, defeating the recursive's cache so every
  bot query lands on the authoritatives (RRL on the authoritative side
  is the mitigation; see :mod:`repro.dns.rrl`).

Everything is driven through the hierarchical seeding API
(:func:`repro.seeding.derive`), so attack traffic is a pure function of
``(seed, vp_id, tick)`` — independent of shard layout and worker count,
which is what keeps the serial ≡ K-worker byte-identity contract alive
with an attack active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..dns.name import Name
from ..dns.rdata import A, NS, SOA
from ..dns.rrl import ResponseRateLimiter
from ..dns.server import AuthoritativeServer
from ..dns.types import RRType
from ..dns.zone import Zone
from ..seeding import derive
from .geo import DATACENTERS

#: serialization tag + version for attack-profile files.
ATTACK_KIND = "repro-attack-profile"
ATTACK_VERSION = 1

#: where the attacker's authoritative is parked on the 10/8 testbed —
#: outside the victim's ``10.0.*`` service range and the VPs' ranges.
ATTACKER_ADDRESS = "10.66.0.53"

VECTORS = ("nxns", "water-torture")


class AttackError(ValueError):
    """Malformed attack profile (unknown vector, bad shares, ...)."""


# -- malicious zone generation ------------------------------------------------


def _as_name(name: Name | str) -> Name:
    if isinstance(name, str):
        name = Name.from_text(name)
    return name.intern()


def water_torture_label(seed: int, *path) -> str:
    """One pseudo-random water-torture label, seeded and layout-free."""
    return f"wt{derive(seed, 'adversary.torture', *path) & 0xFFFFFFFFFFFFF:013x}"


class DelegationBomb:
    """A malicious zone of glueless delegations aimed at ``victim``.

    Each of the ``bombs`` delegated children ``b<k>.<origin>`` lists
    ``fan_out`` NS targets that live *under the victim zone* but do not
    exist — so a recursive fetching them NXDOMAINs against the victim's
    authoritatives, once per target.  The zone carries no glue for them
    (it cannot: the targets are out of bailiwick), which is exactly the
    shape the NXNSAttack paper abuses.
    """

    def __init__(
        self, origin: str, victim: str, fan_out: int, bombs: int = 1,
        seed: int = 0,
    ):
        if fan_out < 1:
            raise AttackError(f"fan_out must be >= 1, got {fan_out}")
        if bombs < 1:
            raise AttackError(f"bombs must be >= 1, got {bombs}")
        self.origin = _as_name(origin)
        self.victim = _as_name(victim)
        self.fan_out = fan_out
        self.bombs = bombs
        self.seed = seed
        self._bomb_origins = [
            self.origin.child(f"b{index}".encode("ascii"))
            for index in range(bombs)
        ]

    def ns_targets(self, bomb_index: int) -> list[Name]:
        """The glueless NS target names of one delegation bomb."""
        targets = []
        for i in range(self.fan_out):
            nonce = derive(self.seed, "adversary.bomb-target", bomb_index, i)
            label = f"nxns-{bomb_index}-{i}-{nonce & 0xFFFFFFFF:08x}"
            targets.append(self.victim.child(label.encode("ascii")))
        return targets

    def qname(self, bomb_index: int, label: bytes) -> Name:
        """A cache-busting query name under one delegation bomb."""
        return self._bomb_origins[bomb_index % self.bombs].child(label)

    def suffix_text(self, bomb_index: int) -> str:
        """Store-internable suffix for observations of this bomb."""
        return "." + self._bomb_origins[bomb_index % self.bombs].to_text()

    def build_zone(self) -> Zone:
        origin_text = self.origin.to_text()
        zone = Zone(origin_text)
        apex_ns = self.origin.child(b"ns")
        zone.add(
            origin_text,
            RRType.SOA,
            SOA(apex_ns, self.origin.child(b"hostmaster"), 1, 7200, 900,
                86400, 60),
        )
        zone.add(origin_text, RRType.NS, NS(apex_ns))
        zone.add(apex_ns, RRType.A, A("192.0.2.66"))
        for index in range(self.bombs):
            child = self._bomb_origins[index]
            for target in self.ns_targets(index):
                zone.add(child, RRType.NS, NS(target))
        return zone

    def build_server(self, telemetry=None) -> AuthoritativeServer:
        return AuthoritativeServer(
            "attacker", [self.build_zone()], telemetry=telemetry
        )


# -- attack profiles ----------------------------------------------------------


@dataclass(frozen=True)
class AttackProfile:
    """A serialisable adversarial-campaign description.

    Times are fractions of the campaign duration (like the bundled
    fault scenarios, one profile works at any scale); everything else
    is plain data so profiles pickle cleanly into spawn workers.
    """

    name: str
    vector: str
    description: str = ""
    #: fraction of vantage points conscripted into the botnet.
    bot_share: float = 0.25
    #: attack window as fractions of the campaign duration.
    start_frac: float = 1.0 / 3.0
    end_frac: float = 2.0 / 3.0
    #: NXNS: glueless NS targets per delegation, and distinct bombs.
    fan_out: int = 10
    bombs: int = 32
    #: the malicious zone's origin (delegation bombs live under it).
    origin: str = "attacker.example."
    #: MaxFetch-style resolver mitigations (None = unmitigated).
    max_fetch: int | None = None
    max_fetch_per_delegation: int | None = None
    #: authoritative-side RRL (None = off).  Campaigns use per-client
    #: buckets (/32): VP addresses interleave /24s across probes, so
    #: prefix aggregation would couple shards and break byte identity.
    rrl_qps: int | None = None
    rrl_slip: int = 2
    #: where the attacker's authoritative is hosted.
    attacker_site: str = "FRA"

    def __post_init__(self):
        if self.vector not in VECTORS:
            raise AttackError(
                f"unknown attack vector {self.vector!r} (have: {VECTORS})"
            )
        if not 0.0 <= self.bot_share <= 1.0:
            raise AttackError(f"bot_share must be in [0,1], got {self.bot_share}")
        if not 0.0 <= self.start_frac < self.end_frac <= 1.0:
            raise AttackError(
                f"bad attack window [{self.start_frac}, {self.end_frac}]"
            )
        if self.attacker_site not in DATACENTERS:
            raise AttackError(f"unknown attacker_site {self.attacker_site!r}")
        # (written so that NaN, which compares false both ways, fails)
        for field, minimum, optional in (
            ("fan_out", 1, False),
            ("bombs", 1, False),
            ("max_fetch", 0, True),
            ("max_fetch_per_delegation", 0, True),
            ("rrl_qps", 1, True),
            ("rrl_slip", 0, False),
        ):
            value = getattr(self, field)
            if not ((optional and value is None) or value >= minimum):
                allowed = f">= {minimum}" + (" or None" if optional else "")
                raise AttackError(f"{field} must be {allowed}, got {value}")

    def to_dict(self) -> dict:
        return {
            "kind": ATTACK_KIND,
            "version": ATTACK_VERSION,
            "name": self.name,
            "vector": self.vector,
            "description": self.description,
            "bot_share": self.bot_share,
            "start_frac": self.start_frac,
            "end_frac": self.end_frac,
            "fan_out": self.fan_out,
            "bombs": self.bombs,
            "origin": self.origin,
            "max_fetch": self.max_fetch,
            "max_fetch_per_delegation": self.max_fetch_per_delegation,
            "rrl_qps": self.rrl_qps,
            "rrl_slip": self.rrl_slip,
            "attacker_site": self.attacker_site,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackProfile":
        if data.get("kind") != ATTACK_KIND:
            raise AttackError(f"not an attack profile: kind={data.get('kind')!r}")
        if data.get("version") != ATTACK_VERSION:
            raise AttackError(f"unsupported version {data.get('version')!r}")
        fields = {
            key: value
            for key, value in data.items()
            if key not in ("kind", "version")
        }
        try:
            return cls(**fields)
        except TypeError as exc:
            raise AttackError(str(exc)) from None

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


def load_profile(path: str | Path) -> AttackProfile:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AttackError(f"{path}: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise AttackError("not a JSON object")
        return AttackProfile.from_dict(data)
    except AttackError as exc:
        raise AttackError(f"{path}: {exc}") from None


#: name -> (profile, one-line description) bundled attacks.
BUILTIN_ATTACKS: dict[str, tuple] = {
    "nxns": (
        AttackProfile(
            name="nxns",
            vector="nxns",
            description="unmitigated delegation bombs (fan-out 10)",
        ),
        "NXNSAttack delegation bombs, unmitigated recursives",
    ),
    "nxns-mitigated": (
        AttackProfile(
            name="nxns-mitigated",
            vector="nxns",
            description="delegation bombs vs MaxFetch-capped recursives",
            max_fetch=6,
            max_fetch_per_delegation=3,
        ),
        "same bombs, resolvers capped at max_fetch=6 (MaxFetch)",
    ),
    "water-torture": (
        AttackProfile(
            name="water-torture",
            vector="water-torture",
            description="random-subdomain flood, no authoritative RRL",
        ),
        "random-subdomain flood from the botnet, RRL off",
    ),
    "water-torture-rrl": (
        AttackProfile(
            name="water-torture-rrl",
            vector="water-torture",
            description="random-subdomain flood vs authoritative RRL",
            rrl_qps=10,
        ),
        "same flood, authoritatives rate-limit errors (slip/drop)",
    ),
}


def resolve_attack(name_or_path: str) -> AttackProfile:
    """A bundled attack name, or a path to a saved profile JSON."""
    if name_or_path in BUILTIN_ATTACKS:
        return BUILTIN_ATTACKS[name_or_path][0]
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        return load_profile(path)
    known = ", ".join(sorted(BUILTIN_ATTACKS))
    raise AttackError(f"no bundled attack {name_or_path!r} (have: {known})")


# -- the compiled campaign plan ----------------------------------------------


class AttackPlan:
    """An :class:`AttackProfile` compiled against one campaign.

    Pure functions of ``(seed, vp_id, tick)`` throughout: bot
    conscription, bomb choice, and water-torture labels never consult
    shared state, so any shard computes the same answers.
    """

    def __init__(
        self, profile: AttackProfile, seed: int, duration_s: float,
        victim_domain: str,
    ):
        self.profile = profile
        self.seed = seed
        self.start_s = profile.start_frac * duration_s
        self.end_s = profile.end_frac * duration_s
        self.victim_domain = victim_domain
        self.victim_apex = Name.from_text(victim_domain).intern()
        self.bomb: DelegationBomb | None = None
        if profile.vector == "nxns":
            self.bomb = DelegationBomb(
                profile.origin,
                victim_domain,
                fan_out=profile.fan_out,
                bombs=profile.bombs,
                seed=derive(seed, "adversary.zone"),
            )
        self.attacker_address: str | None = None
        self._torture_suffix = "." + self.victim_apex.to_text()

    # -- deployment --------------------------------------------------------

    def deploy(self, network, telemetry=None) -> str | None:
        """Host the attacker's authoritative; returns its address."""
        if self.bomb is None:
            return None
        engine = self.bomb.build_server(telemetry=telemetry)
        network.register_host(
            ATTACKER_ADDRESS,
            DATACENTERS[self.profile.attacker_site],
            engine.handle_wire,
        )
        self.attacker_address = ATTACKER_ADDRESS
        return ATTACKER_ADDRESS

    def stub_zone(self) -> tuple[str, list[str]] | None:
        """The stub-zone entry pointing resolvers at the attacker."""
        if self.attacker_address is None:
            return None
        return self.profile.origin, [self.attacker_address]

    def resolver_options(self) -> dict:
        """MaxFetch mitigation kwargs for :class:`RecursiveResolver`."""
        options = {}
        if self.profile.max_fetch is not None:
            options["max_fetch"] = self.profile.max_fetch
        if self.profile.max_fetch_per_delegation is not None:
            options["max_fetch_per_delegation"] = (
                self.profile.max_fetch_per_delegation
            )
        return options

    def rate_limiter_factory(self):
        """Per-authoritative RRL factory (None when RRL is off)."""
        profile = self.profile
        if profile.rrl_qps is None:
            return None

        def factory() -> ResponseRateLimiter:
            # /32 buckets: campaign VP addresses interleave /24s across
            # probes (and therefore across shards), so per-client
            # buckets are what keep RRL decisions layout-invariant.
            return ResponseRateLimiter(
                responses_per_second=profile.rrl_qps,
                slip_ratio=profile.rrl_slip,
                ipv4_prefix_len=32,
            )

        return factory

    # -- per-query decisions ----------------------------------------------

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def is_bot(self, vp_id: int) -> bool:
        threshold = int(round(self.profile.bot_share * 1_000_000))
        return derive(self.seed, "adversary.bot", vp_id) % 1_000_000 < threshold

    def bot_ids(self, vp_ids) -> set[int]:
        return {vp_id for vp_id in vp_ids if self.is_bot(vp_id)}

    def query_for(self, vp_id: int, tick: int) -> tuple[Name, bytes, str]:
        """The attack query one bot issues this tick.

        Returns ``(qname, label_bytes, suffix_text)`` — label/suffix in
        the shape the observation store interns, so attack traffic rides
        the normal recording path.
        """
        if self.bomb is not None:
            index = derive(self.seed, "adversary.pick", vp_id, tick) % (
                self.profile.bombs
            )
            label = f"a-{vp_id}-{tick}".encode("ascii")
            return (
                self.bomb.qname(index, label),
                label,
                self.bomb.suffix_text(index),
            )
        label_text = water_torture_label(self.seed, vp_id, tick)
        label = label_text.encode("ascii")
        return self.victim_apex.child(label), label, self._torture_suffix

    # -- reporting ---------------------------------------------------------

    def transitions(self) -> list[tuple[float, str, dict]]:
        """Attack-window edges for the event log (a priori, like faults)."""
        profile = self.profile
        detail = {
            "attack": profile.name,
            "vector": profile.vector,
            "bot_share": profile.bot_share,
            "fan_out": profile.fan_out if profile.vector == "nxns" else 0,
            "max_fetch": profile.max_fetch,
            "rrl_qps": profile.rrl_qps,
        }
        return [
            (self.start_s, "attack.begin", detail),
            (self.end_s, "attack.end", dict(detail)),
        ]


__all__ = [
    "ATTACK_KIND",
    "ATTACK_VERSION",
    "ATTACKER_ADDRESS",
    "AttackError",
    "AttackPlan",
    "AttackProfile",
    "BUILTIN_ATTACKS",
    "DelegationBomb",
    "VECTORS",
    "load_profile",
    "resolve_attack",
    "water_torture_label",
]
