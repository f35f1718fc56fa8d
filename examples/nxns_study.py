#!/usr/bin/env python3
"""NXNSAttack vs the testbed (§7 resilience, sharpened).

The paper's §7 argues NS-set design also buys DDoS resilience.  This
study probes that with the NXNSAttack mechanism: a malicious zone whose
delegations fan out to glueless NS targets *under the victim zone*, so
a recursive chasing them amplifies one bot query into up to fan-out
fetches against the victim's authoritatives.

1. **Amplification, per selector** — resolve one delegation-bomb qname
   directly through every selector implementation, unmitigated and with
   a MaxFetch cap: unmitigated amplification equals the fan-out exactly,
   mitigated never exceeds the cap.
2. **Share drift under fire** — full campaigns (control, unmitigated
   attack, MaxFetch-mitigated attack): per-NS query share and SERVFAIL
   rate per attack window, plus the fetch-amplification factor billed in
   the cost ledger.
3. **RRL under fire** — a spoofed /24 water-torture flood straight at
   the victim (slipped/dropped, bystanders unaffected), then RRL
   blunting the campaign's NXDOMAIN fetch storm, counts from the
   cost ledger.

Run:  python examples/nxns_study.py [--probes N]
"""

import argparse
import dataclasses
import random

from repro.analysis import render_table
from repro.core import ExperimentConfig, TestbedExperiment
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT
from repro.dns.rrl import ResponseRateLimiter
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone
from repro.netsim.adversary import (
    ATTACKER_ADDRESS,
    BUILTIN_ATTACKS,
    DelegationBomb,
    water_torture_label,
)
from repro.netsim.geo import DATACENTERS, PROBE_CITIES
from repro.netsim.latency import LatencyModel, LatencyParameters
from repro.netsim.network import SimNetwork
from repro.resolvers.population import SELECTOR_CLASSES
from repro.resolvers.resolver import RecursiveResolver
from repro.telemetry import Telemetry

VICTIM = "ourtestdomain.nl."
VICTIM_ADDRESS = "10.0.0.1"


def victim_engine() -> AuthoritativeServer:
    zone = Zone(VICTIM)
    apex_ns = Name.from_text("ns1." + VICTIM)
    zone.add(
        VICTIM,
        RRType.SOA,
        SOA(apex_ns, Name.from_text("h." + VICTIM), 1, 7200, 3600, 1209600, 60),
    )
    zone.add(VICTIM, RRType.NS, NS(apex_ns))
    zone.add("probe." + VICTIM, RRType.TXT, TXT.from_value("alive"), ttl=5)
    return AuthoritativeServer("victim", [zone])


def amplification_for(selector_name: str, bomb: DelegationBomb, **limits):
    """ns_fetches billed for one bomb query through one selector."""
    network = SimNetwork(latency=LatencyModel(LatencyParameters(loss_rate=0.0)))
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
        SELECTOR_CLASSES[selector_name](rng=random.Random(11)),
        rng=random.Random(7),
        **limits,
    )
    resolver.add_stub_zone(VICTIM, [VICTIM_ADDRESS])
    resolver.add_stub_zone(bomb.origin, [ATTACKER_ADDRESS])
    result = resolver.resolve(bomb.qname(0, b"study"), RRType.TXT)
    assert result.rcode == Rcode.SERVFAIL, "bomb targets never resolve"
    return result.ns_fetches


def run_campaign(args, attack):
    config = ExperimentConfig.for_combination(
        "2C",
        num_probes=args.probes,
        interval_s=args.interval_s,
        duration_s=args.duration_s,
        seed=args.seed,
        attack=attack,
    )
    telemetry = Telemetry.enabled_bundle(
        metrics=False, tracing=False, profiling=False, costs=True
    )
    return config, TestbedExperiment(config, telemetry=telemetry).run()


def window_stats(observations, begin, end, addresses):
    """(per-address share, failure rate) over [begin, end)."""
    window = [obs for obs in observations if begin <= obs.timestamp < end]
    total = len(window)
    counts = dict.fromkeys(addresses, 0)
    failed = 0
    for obs in window:
        if obs.succeeded:
            if obs.authoritative in counts:
                counts[obs.authoritative] += 1
        else:
            failed += 1
    shares = {
        address: (counts[address] / total if total else 0.0)
        for address in addresses
    }
    return shares, (failed / total if total else 0.0)


def ledger_amplification(costs: dict):
    totals = costs.get("totals", {})
    bot = totals.get("attack_query", 0)
    fetches = totals.get("ns_fetch", 0)
    return (fetches / bot) if bot else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probes", type=int, default=120)
    parser.add_argument("--interval-s", type=float, default=60.0)
    parser.add_argument("--duration-s", type=float, default=1800.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fan-out", type=int, default=10)
    parser.add_argument("--max-fetch", type=int, default=3)
    args = parser.parse_args()

    # -- Part 1: amplification per selector, with/without MaxFetch ------
    bomb = DelegationBomb(
        "attacker.example.", VICTIM, fan_out=args.fan_out, bombs=4, seed=3
    )
    rows = []
    for name in sorted(SELECTOR_CLASSES):
        raw = amplification_for(name, bomb)
        capped = amplification_for(name, bomb, max_fetch=args.max_fetch)
        assert raw == args.fan_out, (
            f"{name}: unmitigated amplification {raw} != fan-out {args.fan_out}"
        )
        assert capped <= args.max_fetch, (
            f"{name}: MaxFetch breached ({capped} > {args.max_fetch})"
        )
        rows.append([name, str(raw), str(capped)])
    print(
        render_table(
            ["selector", "fetches (raw)", f"fetches (max_fetch={args.max_fetch})"],
            rows,
            title=(
                f"one bomb query, fan-out {args.fan_out}: glueless NS "
                "fetches per selector"
            ),
        )
    )
    print()
    print(
        f"unmitigated recursives amplify each bomb query into "
        f"{args.fan_out} fetches; MaxFetch caps amplification at "
        f"{args.max_fetch} for every selector."
    )

    # -- Part 2: campaign share drift, control vs attack vs mitigated ---
    mitigated = BUILTIN_ATTACKS["nxns-mitigated"][0]
    campaigns = [
        ("control", None),
        ("nxns", "nxns"),
        ("nxns+maxfetch", mitigated),
    ]
    results = {}
    config = None
    for label, attack in campaigns:
        config, results[label] = run_campaign(args, attack)
    addresses = results["control"].addresses
    names = {
        address: spec.name
        for spec, address in zip(config.authoritatives, addresses)
    }
    begin, end = args.duration_s / 3.0, 2.0 * args.duration_s / 3.0
    windows = [
        ("before", 0.0, begin),
        ("attack", begin, end),
        ("after", end, args.duration_s),
    ]
    rows = []
    for window_label, lo, hi in windows:
        for label, _ in campaigns:
            shares, failure = window_stats(
                results[label].observations, lo, hi, addresses
            )
            rows.append(
                [
                    window_label,
                    label,
                    *(f"{shares[address]:6.1%}" for address in addresses),
                    f"{failure:6.1%}",
                ]
            )
    print()
    print(
        render_table(
            ["window", "campaign"]
            + [f"{names[a]} share" for a in addresses]
            + ["SERVFAIL"],
            rows,
            title=(
                f"per-NS share drift, attack live [{begin:g}s, {end:g}s) "
                f"of {args.duration_s:g}s"
            ),
        )
    )

    def victim_load(label):
        return sum(results[label].server_query_counts.values())

    raw_amp = ledger_amplification(results["nxns"].costs)
    capped_amp = ledger_amplification(results["nxns+maxfetch"].costs)
    control_load = victim_load("control")
    attack_load = victim_load("nxns")
    mitigated_load = victim_load("nxns+maxfetch")
    assert raw_amp >= 0.9 * args.fan_out, "campaign amplification ~ fan-out"
    assert capped_amp <= mitigated.max_fetch, "ledger must respect MaxFetch"
    assert attack_load > control_load, "the attack must add victim load"
    assert mitigated_load < attack_load, "MaxFetch must shed victim load"
    _, attack_failure = window_stats(
        results["nxns"].observations, begin, end, addresses
    )
    _, control_failure = window_stats(
        results["control"].observations, begin, end, addresses
    )
    assert attack_failure > control_failure, "bomb queries SERVFAIL in-window"
    print()
    print(
        f"victim authoritatives answer {control_load} queries in the "
        f"control, {attack_load} under the unmitigated attack "
        f"({raw_amp:.1f}x fetch amplification), and {mitigated_load} with "
        f"MaxFetch ({capped_amp:.1f}x) — MaxFetch caps the amplification."
    )

    # -- Part 3: authoritative RRL against the floods -------------------
    # 3a. Water torture as RRL's design target: spoofed clients from one
    # /24 spray unique nonexistent names straight at the victim.  The
    # zone-keyed error buckets aggregate every NXDOMAIN, so the flood is
    # slipped/dropped while a client elsewhere still gets full answers.
    engine = victim_engine()
    engine.rate_limiter = ResponseRateLimiter(
        responses_per_second=5, slip_ratio=2, ipv4_prefix_len=24
    )
    answered = 0
    for index in range(200):
        label = water_torture_label(41, index)
        query = Message.make_query(label + "." + VICTIM, RRType.A, msg_id=index)
        wire = engine.handle_wire(
            query.to_wire(),
            client=f"198.51.100.{index % 250 + 1}:4242",
            now=index * 0.002,
        )
        if wire is not None and not Message.from_wire(wire).truncated:
            answered += 1
    limiter = engine.rate_limiter
    assert limiter.slipped + limiter.dropped > 0, "RRL must fire under the flood"
    assert answered < 200, "RRL must shed most of the flood"
    bystander = engine.handle_wire(
        Message.make_query("probe." + VICTIM, RRType.TXT, msg_id=999).to_wire(),
        client="203.0.113.9:53",
        now=0.1,
    )
    assert not Message.from_wire(bystander).truncated, "bystanders unaffected"

    # 3b. RRL also blunts the NXNS fetch storm inside a campaign: the
    # bomb's glueless fetches NXDOMAIN against the victim many times a
    # second from each recursive, and the zone-keyed buckets catch that.
    _, limited = run_campaign(
        args, dataclasses.replace(BUILTIN_ATTACKS["nxns"][0], rrl_qps=2)
    )
    campaign_slipped = limited.costs.get("totals", {}).get("rrl_slip", 0)
    campaign_dropped = limited.costs.get("totals", {}).get("rrl_drop", 0)
    assert campaign_slipped + campaign_dropped > 0, (
        "RRL must catch the campaign fetch storm"
    )
    print()
    print(
        f"water torture from one /24: RRL answers {answered}/200 flood "
        f"queries in full, slips {limiter.slipped} (TC) and drops "
        f"{limiter.dropped}, while a bystander still gets real answers."
    )
    print(
        f"under the campaign's fetch storm RRL slips "
        f"{campaign_slipped} and drops {campaign_dropped} NXDOMAIN "
        f"responses at the victim's authoritatives."
    )
    print()
    print("all adversarial claims hold.")


if __name__ == "__main__":
    main()
