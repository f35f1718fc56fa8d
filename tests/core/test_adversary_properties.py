"""Property-based tests: amplification bounds every resolver must uphold.

The NXNSAttack invariants, quantified over selector implementations,
seeds, and bomb shapes: a MaxFetch-mitigated resolver never exceeds its
fetch budget for *any* delegation bomb, an unmitigated one amplifies
linearly in the bomb's fan-out, and the bill is exact whether the
resolution is driven by ``resolve()`` or on a caller's kernel.  Styled
after
``tests/resolvers/test_selector_properties.py``.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ExperimentConfig, run_campaign, run_parallel
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.rrl import ResponseRateLimiter
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.netsim.adversary import (
    ATTACKER_ADDRESS,
    AttackError,
    AttackPlan,
    AttackProfile,
    BUILTIN_ATTACKS,
    DelegationBomb,
)
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.netsim.sched import EventKernel
from repro.resolvers.population import SELECTOR_CLASSES
from repro.resolvers.resolver import RecursiveResolver
from repro.telemetry import Telemetry

VICTIM = Name.from_text("ourtestdomain.nl.")
VICTIM_ADDRESS = "10.0.0.1"

selector_name = st.sampled_from(sorted(SELECTOR_CLASSES))


def victim_engine() -> AuthoritativeServer:
    zone = Zone(VICTIM)
    zone.add(
        VICTIM,
        RRType.SOA,
        SOA(
            Name.from_text("ns1.ourtestdomain.nl."),
            Name.from_text("h.ourtestdomain.nl."),
            1, 7200, 3600, 1209600, 60,
        ),
    )
    zone.add(VICTIM, RRType.NS, NS(Name.from_text("ns1.ourtestdomain.nl.")))
    zone.add("probe.ourtestdomain.nl.", RRType.TXT, TXT.from_value("alive"))
    return AuthoritativeServer("victim", [zone])


def bombed_resolver(selector, bomb, seed, telemetry=None, **limits):
    """A resolver wired to the victim and the attacker's bomb zone."""
    network = SimNetwork(
        latency=LatencyModel(LatencyParameters(loss_rate=0.0)),
        telemetry=telemetry,
    )
    network.register_host(
        VICTIM_ADDRESS, DATACENTERS["FRA"], victim_engine().handle_wire
    )
    network.register_host(
        ATTACKER_ADDRESS, DATACENTERS["FRA"], bomb.build_server().handle_wire
    )
    resolver = RecursiveResolver(
        "10.9.0.1",
        PROBE_CITIES["AMS"],
        network,
        SELECTOR_CLASSES[selector](rng=random.Random(seed)),
        rng=random.Random(seed ^ 0x5EED),
        **limits,
    )
    resolver.add_stub_zone(VICTIM, [VICTIM_ADDRESS])
    resolver.add_stub_zone(bomb.origin, [ATTACKER_ADDRESS])
    return network, resolver


def resolve_bomb(selector, bomb, seed, own_kernel=False, **limits):
    """Detonate one bomb through ``resolve()``, or — ``own_kernel`` — the
    way campaigns do, with ``resolve_event`` on a caller-owned kernel."""
    network, resolver = bombed_resolver(selector, bomb, seed, **limits)
    qname = bomb.qname(0, b"probe")
    if not own_kernel:
        return resolver, resolver.resolve(qname, RRType.TXT)
    engine = EventKernel(clock=network.clock, costs=network.telemetry.costs)
    results = []
    resolver.resolve_event(qname, RRType.TXT, engine, results.append)
    engine.run()
    assert len(results) == 1
    return resolver, results[0]


class TestAmplificationBounds:
    @settings(max_examples=40, deadline=None)
    @given(
        selector_name,
        st.integers(1, 12),
        st.integers(1, 6),
        st.integers(0, 2**31),
    )
    def test_mitigated_never_exceeds_max_fetch(
        self, name, fan_out, max_fetch, seed
    ):
        bomb = DelegationBomb(
            "attacker.example.", VICTIM, fan_out=fan_out, seed=seed
        )
        resolver, result = resolve_bomb(
            name, bomb, seed, max_fetch=max_fetch
        )
        assert result.ns_fetches <= max_fetch
        assert resolver.ns_fetches <= max_fetch
        assert result.rcode == Rcode.SERVFAIL

    @settings(max_examples=40, deadline=None)
    @given(selector_name, st.integers(1, 12), st.integers(0, 2**31))
    def test_unmitigated_amplification_is_linear_in_fan_out(
        self, name, fan_out, seed
    ):
        bomb = DelegationBomb(
            "attacker.example.", VICTIM, fan_out=fan_out, seed=seed
        )
        resolver, result = resolve_bomb(name, bomb, seed)
        # Every glueless target is chased exactly once: Ω(N) = Θ(N).
        assert result.ns_fetches == fan_out
        assert resolver.ns_fetches == fan_out

    @settings(max_examples=30, deadline=None)
    @given(
        selector_name,
        st.integers(2, 10),
        st.integers(1, 4),
        st.integers(0, 2**31),
    )
    def test_per_delegation_cap_bounds_one_referral(
        self, name, fan_out, cap, seed
    ):
        bomb = DelegationBomb(
            "attacker.example.", VICTIM, fan_out=fan_out, seed=seed
        )
        _, result = resolve_bomb(
            name, bomb, seed, max_fetch_per_delegation=cap
        )
        assert result.ns_fetches <= cap

    @settings(max_examples=25, deadline=None)
    @given(
        selector_name,
        st.integers(1, 8),
        st.sampled_from([None, 1, 2, 4]),
        st.integers(0, 2**31),
    )
    def test_sync_and_kernel_engines_bill_identically(
        self, name, fan_out, max_fetch, seed
    ):
        """The bomb's bill in closed form, identical on both drivers.

        Loss-free: one exchange fetches the bomb referral, then each
        chased target costs one NXDOMAIN exchange at the victim — the
        whole fan-out with no cap, ``max_fetch`` of it under the cap.
        """
        limits = {} if max_fetch is None else {"max_fetch": max_fetch}
        bomb = DelegationBomb(
            "attacker.example.", VICTIM, fan_out=fan_out, seed=seed
        )
        fetches = fan_out if max_fetch is None else min(fan_out, max_fetch)
        for own_kernel in (False, True):
            telemetry = Telemetry.enabled_bundle(
                metrics=False, tracing=False, costs=True
            )
            resolver, result = resolve_bomb(
                name, bomb, seed, own_kernel=own_kernel,
                telemetry=telemetry, **limits
            )
            assert result.rcode == Rcode.SERVFAIL
            assert result.ns_fetches == resolver.ns_fetches == fetches
            # The client query itself made one attempt; every fetch
            # made one more on its own (sub-)result.
            assert result.attempts == 1
            assert resolver.queries_sent == 1 + fetches
            totals = telemetry.costs.totals()
            assert totals["query"] == 1
            assert totals["ns_fetch"] == fetches
            assert totals["encode"] == 1 + fetches
            # Every exchange is one delivery event; no timer ever fires.
            assert totals["sched_event"] == 1 + fetches


class TestAttackProfiles:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(sorted(BUILTIN_ATTACKS)),
        st.integers(1, 20),
        st.sampled_from([None, 1, 3, 8]),
    )
    def test_profile_round_trips_through_dict(self, base, fan_out, max_fetch):
        profile = dataclasses.replace(
            BUILTIN_ATTACKS[base][0], fan_out=fan_out, max_fetch=max_fetch
        )
        assert AttackProfile.from_dict(profile.to_dict()) == profile

    def test_profile_file_round_trip(self, tmp_path):
        from repro.netsim.adversary import load_profile

        profile = BUILTIN_ATTACKS["nxns-mitigated"][0]
        path = profile.save(tmp_path / "attack.json")
        assert load_profile(path) == profile

    def test_bad_profiles_rejected(self):
        with pytest.raises(AttackError):
            AttackProfile(name="x", vector="teardrop")
        with pytest.raises(AttackError):
            AttackProfile(name="x", vector="nxns", bot_share=1.5)
        with pytest.raises(AttackError):
            AttackProfile(name="x", vector="nxns", start_frac=0.8, end_frac=0.2)
        # Out-of-range knobs: fan_out 0 used to fail mid-setup, rrl_qps
        # 0 to SERVFAIL every query, max_fetch -1 to pass silently.
        for field, value in [
            ("fan_out", 0), ("fan_out", -2), ("bombs", 0),
            ("max_fetch", -1), ("max_fetch_per_delegation", -1),
            ("rrl_qps", 0), ("rrl_qps", -1), ("rrl_slip", -1),
            ("rrl_qps", float("nan")),
        ]:
            with pytest.raises(AttackError, match=field):
                AttackProfile(name="x", vector="nxns", **{field: value})
        # ... and the edges of each range are accepted
        AttackProfile(name="x", vector="nxns", fan_out=1, bombs=1,
                      max_fetch=0, max_fetch_per_delegation=0, rrl_qps=1,
                      rrl_slip=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**63), st.integers(1, 4))
    def test_bot_set_is_layout_invariant(self, seed, shards):
        plan = AttackPlan(
            BUILTIN_ATTACKS["nxns"][0],
            seed=seed,
            duration_s=3600.0,
            victim_domain="ourtestdomain.nl.",
        )
        vp_ids = list(range(60))
        whole = plan.bot_ids(vp_ids)
        sharded = set()
        for shard in range(shards):
            sharded |= plan.bot_ids(vp_ids[shard::shards])
        assert sharded == whole

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**63), st.integers(0, 100), st.integers(0, 50))
    def test_attack_queries_are_pure_functions(self, seed, vp_id, tick):
        for profile in ("nxns", "water-torture"):
            plan = AttackPlan(
                BUILTIN_ATTACKS[profile][0],
                seed=seed,
                duration_s=3600.0,
                victim_domain="ourtestdomain.nl.",
            )
            again = AttackPlan(
                BUILTIN_ATTACKS[profile][0],
                seed=seed,
                duration_s=3600.0,
                victim_domain="ourtestdomain.nl.",
            )
            assert plan.query_for(vp_id, tick) == again.query_for(vp_id, tick)


#: ~2 ticks over ~24 VPs: the smallest campaign that exercises the
#: attack window (middle third) plus benign edges on both sides.
CAMPAIGN_KWARGS = dict(
    num_probes=24,
    interval_s=80.0,
    duration_s=240.0,
    seed=11,
)


def attack_config(**overrides):
    kwargs = {**CAMPAIGN_KWARGS, **overrides}
    return ExperimentConfig.for_combination("2C", **kwargs)


class TestAttackCampaignDeterminism:
    """Serial ≡ K-worker with an attack active."""

    def test_workers_match_serial_under_attack(self):
        profile = dataclasses.replace(
            BUILTIN_ATTACKS["nxns-mitigated"][0], rrl_qps=5
        )
        results = {}
        costs = {}
        for label, workers in {"serial": 1, "w2": 2}.items():
            telemetry = Telemetry.enabled_bundle(
                metrics=False, tracing=False, costs=True
            )
            results[label] = run_parallel(
                attack_config(attack=profile),
                workers=workers,
                shards=2,
                telemetry=telemetry,
            )
            costs[label] = telemetry.costs.to_json()
        assert (
            results["serial"].run.observations == results["w2"].run.observations
        )
        assert (
            results["serial"].server_query_counts
            == results["w2"].server_query_counts
        )
        assert costs["serial"] == costs["w2"]
        # Sanity: the attack actually ran and was billed.
        assert '"attack_query"' in costs["serial"]
        assert '"ns_fetch"' in costs["serial"]

    def test_water_torture_campaign_is_layout_invariant(self):
        results = [
            run_parallel(
                attack_config(attack="water-torture", seed=5),
                workers=1,
                shards=shards,
            )
            for shards in (1, 3)
        ]
        assert results[0].run.observations == results[1].run.observations


class TestRrlConservation:
    """``rrl_check`` = pass + slip + drop, against the limiters themselves."""

    def test_ledger_agrees_with_the_limiters(self):
        telemetry = Telemetry.enabled_bundle(
            metrics=False, tracing=False, costs=True
        )
        profile = AttackProfile(name="nxns-rrl", vector="nxns", rrl_qps=1)
        result = run_campaign(attack_config(attack=profile), telemetry=telemetry)
        limiters = [
            engine.rate_limiter
            for deployed in result.deployment.deployed
            for engine in deployed.engines.values()
        ]
        assert limiters and all(limiter is not None for limiter in limiters)
        totals = telemetry.costs.totals()
        slipped = sum(limiter.slipped for limiter in limiters)
        dropped = sum(limiter.dropped for limiter in limiters)
        assert totals.get("rrl_slip", 0) == slipped
        assert totals.get("rrl_drop", 0) == dropped
        assert totals["rrl_check"] >= slipped + dropped
        # Pinned: how the limiters age their buckets moves no decision.
        assert (totals["rrl_check"], slipped, dropped) == (245, 10, 77)

    def test_a_limiters_clock_steps_back_by_less_than_a_window(self, monkeypatch):
        """The precondition under which pruning moves no decision: the
        handler runs at ``send + rtt/2`` but deliveries run in ``send +
        rtt`` order, so a limiter's ``now`` steps back, and it must step
        back by less than ``window_s`` (see ``ResponseRateLimiter``)."""
        limiters, latest, step_back = {}, {}, {}
        check = ResponseRateLimiter.check

        def watched(limiter, client, response_key, now):
            key = id(limiter)
            limiters[key] = limiter
            if key in latest:
                step_back[key] = max(step_back.get(key, 0.0), latest[key] - now)
            latest[key] = max(latest.get(key, now), now)
            return check(limiter, client, response_key, now)

        monkeypatch.setattr(ResponseRateLimiter, "check", watched)
        profile = AttackProfile(name="nxns-rrl", vector="nxns", rrl_qps=1)
        run_campaign(attack_config(attack=profile, scenario="ns-flap"))
        assert limiters
        worst = {key: step_back.get(key, 0.0) for key in limiters}
        assert max(worst.values()) > 0.0  # the kernel does step back
        assert all(
            worst[key] < limiter.window_s for key, limiter in limiters.items()
        ), worst
