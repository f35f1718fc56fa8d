"""One repetition of one workload, in a process of its own.

``run.py`` spawns this file once per repetition, so every repetition
pays interpreter start-up and imports, starts from a cold heap, and has
its own ``ru_maxrss``.  The last line of stdout is one JSON object with
the repetition's raw numbers; ``run.py`` turns repetitions into medians.

Modes:

``plain``     untouched program, telemetry off — the only source of
              end-to-end numbers.
``traced``    span wrappers on every layer boundary (``layers.py``) and
              the program's deterministic ``CostLedger`` switched on.
``ledger``    ``CostLedger`` only (sizes its overhead) plus two RSS
              probes around ``build_vantage_points`` and ``measure``.
``eventlog``  ``Telemetry.enabled_bundle(event_log=...)`` — what the
              full telemetry pipeline costs per query.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from common import (
    OUT,
    ledger_bundle,
    peak_rss_mib,
    sized,
    start_tracer,
    trace_report,
)

INTERVAL_S, DURATION_S = 120.0, 3600.0
COMBO = "4B"
#: the program's own phases that come before ``experiment.measure``
SETUP_PHASES = ("deploy", "probes", "build_vps")


# -- campaigns --------------------------------------------------------------


def campaign_config(workload: str, seed: int, scale: float):
    from repro.core.experiment import ExperimentConfig

    options = dict(
        num_probes=sized(workload, scale),
        interval_s=INTERVAL_S,
        duration_s=DURATION_S,
        seed=seed,
    )
    if workload == "campaign_hostile":
        from repro.netsim.adversary import AttackProfile

        options["scenario"] = "ns-flap"
        # One response per second under the bombs' fan-out of 10, so a
        # resolver that sends a whole bomb to one server is limited.  At
        # the issue's rrl_qps=10 the limiter sat exactly on the fan-out
        # and limited nothing on one seed in three, even at 600 probes.
        options["attack"] = AttackProfile(
            name="bench-nxns-rrl", vector="nxns", rrl_qps=9
        )
        # The event kernel is a flag today and simply *the* engine after
        # the one-engine collapse; ask for it only while it is a choice.
        if any(f.name == "kernel" for f in dataclasses.fields(ExperimentConfig)):
            options["kernel"] = True
    return ExperimentConfig.for_combination(COMBO, **options)


def share_follows_rtt(result) -> bool:
    """Faster site ⇒ larger query share, up to near-ties in share.

    Two sites within two share points of each other may swap places on
    sampling noise alone; any larger inversion contradicts §4.2.
    """
    sites = result.ranked_by_rtt()
    return all(
        fast.query_share >= slow.query_share - 0.02
        for index, fast in enumerate(sites)
        for slow in sites[index + 1:]
    )


def run_campaign(workload: str, args) -> dict:
    from repro.core.combinations import COMBINATIONS
    from repro.core.experiment import TestbedExperiment

    tracer = None
    telemetry = None
    rss_deltas: dict[str, int] = {}
    cache_entries: list[int] = []
    event_log = None
    if args.mode == "traced":
        from repro.atlas.platform import AtlasPlatform

        tracer = start_tracer()
        telemetry = ledger_bundle()
        # The platform and its resolvers are gone once `run()` returns:
        # count live cache entries when the campaign ends, outside the
        # measured phase's span.
        measure = AtlasPlatform.measure

        def measure_then_count(platform, *rest, **options):
            run = measure(platform, *rest, **options)
            # VPs behind one shared recursive share its cache.
            caches = {
                id(vp.resolver.record_cache): len(vp.resolver.record_cache)
                for vp in platform.vantage_points
            }
            cache_entries.append(sum(caches.values()))
            return run

        AtlasPlatform.measure = measure_then_count
    elif args.mode == "ledger":
        from layers import current_rss_kib, gauge_calls
        from repro.atlas.platform import AtlasPlatform

        gauge_calls(AtlasPlatform, "build_vantage_points", current_rss_kib, rss_deltas)
        gauge_calls(AtlasPlatform, "measure", current_rss_kib, rss_deltas)
        telemetry = ledger_bundle()
    elif args.mode == "eventlog":
        from repro.telemetry import Telemetry

        OUT.mkdir(exist_ok=True)
        event_log = OUT / f"events-{workload}.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=str(event_log))

    config = campaign_config(workload, args.seed, args.scale)
    experiment = TestbedExperiment(config, telemetry=telemetry)
    result = experiment.run()
    if event_log is not None:
        telemetry.events.close()
        event_log.unlink()

    phases = {
        name: phase["seconds"] for name, phase in result.profile["phases"].items()
    }
    measure_s = phases["experiment.measure"]
    store = result.run.store
    observations = len(store)

    sites = set(COMBINATIONS[COMBO].sites)
    ticks = int(config.duration_s // config.interval_s)
    min_queries = max(3, min(10, ticks - 2))
    out = {
        "ops": observations,
        "setup_s": sum(phases[f"experiment.{name}"] for name in SETUP_PHASES),
        "measure_s": measure_s,
        "build_vps_s": phases["experiment.build_vps"],
    }
    checks = {}
    if workload == "campaign_cold":
        # The CLI's `run` analyses are part of what a user waits for.
        from repro.analysis import (
            analyze_preference,
            analyze_probe_all,
            analyze_query_share,
        )
        from repro.analysis.preference import table2_rows

        rows = result.observations
        started = time.perf_counter()
        analyze_probe_all(rows, sites, COMBO, min_queries=min_queries)
        share = analyze_query_share(rows, sites, COMBO)
        analyze_preference(rows, sites, COMBO, min_queries=min_queries)
        table2_rows(rows, sites, min_queries=min_queries)
        out["analysis_s"] = time.perf_counter() - started
        checks["share_follows_rtt"] = share_follows_rtt(share)
    # Peak memory of the program's work; the checks below are the
    # benchmark's own and must not count.
    out["peak_rss_mib"] = peak_rss_mib()

    vps = store.vp_count
    checks["observations_eq_vps_x_ticks"] = observations == vps * ticks
    out["store_bytes_per_row"] = (
        sum(sys.getsizeof(value) for value in store.__getstate__().values())
        / observations
    )
    started = time.perf_counter()
    store.sort_canonical()
    out["sort_canonical_s"] = time.perf_counter() - started
    digest = hashlib.sha256()
    failed = attempts = 0
    for row in store.iter_rows():
        digest.update(repr(row).encode())
        failed += not row.succeeded
        attempts += row.attempts
    out.update(
        vps=vps,
        sha=digest.hexdigest(),
        sim_failed=failed,
        attempts=attempts,
        checks=checks,
    )

    if result.costs:
        out["ledger"] = result.costs["phases"].get("experiment.measure", {})
    if rss_deltas:
        out["rss_kib_per_vp"] = rss_deltas["build_vantage_points"] / vps
        out["rss_bytes_per_obs"] = rss_deltas["measure"] * 1024.0 / observations
    if tracer is not None:
        out["rrcache_entries_per_vp"] = sum(cache_entries) / vps
        out["trace"] = trace_report(
            tracer, workload, ("atlas.platform", "AtlasPlatform.measure"),
            phase_s=measure_s,
        )
    return out


# -- passive ----------------------------------------------------------------


def run_passive(workload: str, args) -> dict:
    from layers import gauge_calls
    from repro.analysis import analyze_rank_bands
    from repro.passive import (
        OBSERVED_LETTERS,
        PassiveTraceGenerator,
        generate_ditl_trace,
    )
    from repro.passive.analyzer import (
        client_concentration,
        rate_distribution,
        traffic_balance,
    )

    # `generate_ditl_trace` builds the generator and runs it in one call;
    # two one-shot stopwatches tell set-up from the measured phase.
    seconds: dict[str, float] = {}
    gauge_calls(PassiveTraceGenerator, "__init__", time.perf_counter, seconds)
    gauge_calls(PassiveTraceGenerator, "generate", time.perf_counter, seconds)
    tracer = start_tracer() if args.mode == "traced" else None

    trace = generate_ditl_trace(
        num_recursives=sized(workload, args.scale), seed=args.seed
    )
    setup_s, measure_s = seconds["__init__"], seconds["generate"]

    started = time.perf_counter()
    balance = traffic_balance(trace)
    rates = rate_distribution(trace)
    client_concentration(trace)
    bands = analyze_rank_bands(
        trace.queries_by_recursive(), target_count=len(trace.observed_servers)
    )
    analysis_s = time.perf_counter() - started
    rss = peak_rss_mib()

    records = trace.records
    digest = hashlib.sha256()
    for record in records:
        digest.update(
            f"{record.timestamp!r}|{record.recursive}|{record.server_id}\n".encode()
        )
    checks = {
        "records_time_sorted": all(
            a.timestamp <= b.timestamp for a, b in zip(records, records[1:])
        ),
        "only_observed_letters": {r.server_id for r in records}
        <= set(OBSERVED_LETTERS),
        "shares_sum_to_one": abs(sum(balance.shares.values()) - 1.0) < 1e-9,
        "rates_cover_trace": rates.total_queries == len(records),
        "rank_bands_built": len(bands.recursives) > 0,
    }
    out = {
        "ops": len(records),
        "setup_s": setup_s,
        "measure_s": measure_s,
        "analysis_s": analysis_s,
        "peak_rss_mib": rss,
        "sha": digest.hexdigest(),
        "sim_failed": 0,
        "checks": checks,
    }
    if tracer is not None:
        out["trace"] = trace_report(
            tracer, workload, ("passive", "PassiveTraceGenerator.generate"),
            phase_s=measure_s,
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "traced", "ledger", "eventlog"), default="plain"
    )
    args = parser.parse_args()
    if args.workload in ("campaign_cold", "campaign_hostile"):
        out = run_campaign(args.workload, args)
    elif args.workload == "passive_warm":
        out = run_passive(args.workload, args)
    elif args.workload == "serve_mixed":
        from serveload import run_serve

        out = run_serve(args)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    out.update(workload=args.workload, mode=args.mode, seed=args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
