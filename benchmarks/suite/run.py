"""The repository's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py [--seed N]      every workload, both kinds
    python3 benchmarks/suite/run.py --smoke         names only, tiny sizes
    python3 benchmarks/suite/run.py --check-repeat  two sets must agree

End-to-end metrics come from untraced repetitions, each a process of
its own (``rep.py``), reported as the lower quartile (timings) or the
median (memory) over the repetitions that fit in ``--seconds``; repetitions of different workloads interleave
round-robin so a slow minute of the machine is shared by all of them.
Per-layer metrics come from a separate traced run.  The last line of
stdout is one JSON object; the lines before it are for people.

See README.md beside this file for the catalogue and how to read it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
DEFAULT_SEED = 20170412  # the paper's DITL capture date
#: the one common factor applied to every workload's full size
DEFAULT_SCALE = 0.3
SMOKE_SCALE = 0.01
#: A run's repetitions cycle through this many input sets derived from
#: ``--seed``.  How much work one query is depends on the draw — how
#: many VPs are conscripted as bots, which root sites a capture covers,
#: the selector mix of the busiest recursives — by ±10–20 % at these
#: sizes; a quartile over eight draws moves far less from one ``--seed``
#: to the next than any single draw does.
INPUT_SETS = 8
MIN_REPS = 5


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- repetitions ------------------------------------------------------------


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th input set of ``--seed`` (disjoint between seeds)."""
    return seed * INPUT_SETS + index % INPUT_SETS


def min_reps(workload: str) -> int:
    """Simulations: every input set once and the first twice, so that at
    least one output hash is compared.  A ``serve_mixed`` repetition
    takes 6 s and its mix is the same on every draw."""
    return MIN_REPS if workload == "serve_mixed" else INPUT_SETS + 1


def units_of(spec: dict, kind: str) -> dict[str, str]:
    return {row["name"]: row["unit"] for row in spec[kind]}


def spawn_rep(workload: str, seed: int, scale: float, mode: str = "plain") -> dict:
    """Run one repetition in a fresh interpreter; return its JSON."""
    env = dict(os.environ)
    # Fixed str hashing, as in CI: dict and set layouts then repeat from
    # process to process, which removes one source of run-to-run noise.
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, str(SUITE / "rep.py"),
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--mode", mode,
        ],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} repetition ({mode}) exited {done.returncode}")
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.perf_counter() - started
    return rep


def run_repetitions(workloads: list[str], seed: int,
                    seconds: float) -> dict[str, list[dict]]:
    """Untraced repetitions, round-robin, ``seconds`` of them per workload.

    Repetition ``i`` of a workload runs input set ``i mod INPUT_SETS``.
    """
    for workload in workloads:
        # Discarded warm-up: compiles bytecode and fills the page cache.
        spawn_rep(workload, seed, SMOKE_SCALE)
    reps: dict[str, list[dict]] = {workload: [] for workload in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    longest = dict.fromkeys(workloads, 0.0)
    active = list(workloads)
    while active:
        for workload in list(active):
            enough = len(reps[workload]) >= min_reps(workload)
            if enough and spent[workload] + longest[workload] > seconds:
                active.remove(workload)
                continue
            rep = spawn_rep(
                workload, sub_seed(seed, len(reps[workload])), DEFAULT_SCALE
            )
            reps[workload].append(rep)
            spent[workload] += rep["wall_s"]
            longest[workload] = max(longest[workload], rep["wall_s"])
    return reps


# -- end to end -------------------------------------------------------------


def end_to_end_of(rep: dict) -> dict[str, float]:
    """One repetition's end-to-end numbers, under the declared names.

    The contract wants every end-to-end metric on every workload, so the
    serve path's throughput carries the name of its batch counterpart:
    wall per operation at full speed.
    """
    if rep["workload"] == "serve_mixed":
        us_per_query = 1e6 / rep["serve_qps"]
    else:
        us_per_query = rep["measure_s"] / rep["ops"] * 1e6
    return {
        "setup_s": rep["setup_s"],
        "us_per_query": us_per_query,
        "peak_rss_mib": rep["peak_rss_mib"],
    }


def summarize(reps: list[dict]) -> dict[str, dict]:
    """metric -> {value, median, q1, q3, n} over the repetitions.

    ``value`` is what the run reports: the median for memory, the lower
    quartile for the two timings.  Other tenants of a shared machine
    only ever add time, for seconds or minutes on end, so half of a
    run's repetitions are often slow together and the median moves with
    them; over six sets of ten runs the lower quartile's widest spread
    between runs was 17 % where the median's was 27 %.
    """
    rows = [end_to_end_of(rep) for rep in reps]
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        q1, median, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        )
        out[name] = {
            "value": median if name == "peak_rss_mib" else q1,
            "median": median, "q1": q1, "q3": q3, "n": len(values),
        }
    return out


def verdict(reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, complaints) over a workload's reps."""
    complaints = []
    outputs: dict[int, set] = {}
    for index, rep in enumerate(reps):
        for name, passed in rep["checks"].items():
            if not passed:
                complaints.append(f"rep {index}: check {name} failed")
        if rep.get("failed"):
            # Counted in `failed`; an unanswered query is not a wrong output.
            print(f"  rep {index}: {rep['failed']} failed operations "
                  f"{rep['failure_detail']}")
        outputs.setdefault(rep["seed"], set()).add(
            (rep.get("sha"), rep["ops"], rep.get("sim_failed"))
            if "sha" in rep else None
        )
    for seed, distinct in outputs.items():
        if len(distinct) > 1:
            complaints.append(
                f"repetitions of input set {seed} differ in output hash or counts"
            )
        for output in distinct - {None}:
            # Exact per input set: the same --seed on another commit must
            # print the same line unless that commit changes behaviour.
            print("  input set {}: sha256 {}  ops {}  sim_failed {}".format(seed, *output))
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep.get("failed", 0) for rep in reps)
    return not complaints, attempted, failed, complaints


def print_end_to_end(workload: str, summary: dict, units: dict) -> None:
    for name, row in summary.items():
        print(
            f"  {workload:17s} {name:14s} {row['value']:12.6g} {units[name]:4s} (median"
            f" {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['n']})"
        )


# -- per layer --------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Trace:
    """Accessors over the ``trace`` block a traced repetition returns."""

    def __init__(self, report: dict, ops: int):
        self.report = report
        self.ops = ops
        #: span name -> [calls, self_ns, total_ns, raised, returned, net_ns]
        self.names = report["names"]
        self.layers = report["layer_net_ns"]
        self.edges = {(p, c): n for p, c, n in report["edges"]}

    def _sum(self, column: int, names: tuple[str, ...]) -> int:
        return sum(self.names[name][column] for name in names if name in self.names)

    def calls(self, *names: str) -> int:
        return self._sum(0, names)

    def net_ns(self, *names: str) -> float:
        return self._sum(5, names)

    def raised(self) -> int:
        return sum(stat[3] for stat in self.names.values())

    def returned_value(self, *names: str) -> int:
        return self._sum(4, names)

    def layer_calls(self, layer: str) -> int:
        return sum(
            stat[0] for name, stat in self.names.items()
            if name.startswith(layer + ":")
        )

    def layer_us(self, layer: str) -> float:
        """Net self µs of a layer per operation of the workload."""
        return self.layers.get(layer, 0) / 1e3 / self.ops

    def edge(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def children_of(self, *parents: str) -> int:
        return sum(calls for (p, _), calls in self.edges.items() if p in parents)


# Span names (``layer:function``) the reductions below refer to.
FROM_WIRE = "dns.codec:Message.from_wire"
TO_WIRE = "dns.codec:Message.to_wire"
MEMO_DECODE = "dns.codec:ResponseDecodeMemo.decode"
HANDLE_WIRE = "dns.server:AuthoritativeServer.handle_wire"
RRL_CHECK = "dns.rrl:ResponseRateLimiter.check"
EXCHANGES = ("netsim.network:SimNetwork.round_trip", "netsim.network:SimNetwork.transmit")
KERNEL_LOOPS = tuple(
    f"netsim.sched:EventKernel.{name}" for name in ("run", "run_until", "step")
)
RESOLVES = (
    "resolvers.resolver:RecursiveResolver.resolve",
    "resolvers.resolver:RecursiveResolver.resolve_event",
)
LOOKUPS = (
    "resolvers.rrcache:RecordCache.lookup",
    "resolvers.rrcache:RecordCache.lookup_negative",
)


def layer_metrics(trace: Trace, count: Counter, ops: int) -> dict[str, float]:
    """The per-layer numbers any traced phase yields (0 where bypassed).

    ``count`` is the program's cost ledger for the traced phase.
    """
    handle_calls = trace.calls(HANDLE_WIRE)
    memo_calls = trace.calls(MEMO_DECODE)
    exchanges = trace.calls(*EXCHANGES)
    events = trace.children_of(*KERNEL_LOOPS)
    lookups = trace.calls(*LOOKUPS)
    raw_sum_ns = sum(trace.report["layer_self_ns"].values())
    phase_ns = trace.report["phase_ns"]
    return {
        "dns.codec.decode_us": trace.net_ns(FROM_WIRE, MEMO_DECODE) / 1e3 / ops,
        "dns.codec.encode_us": trace.net_ns(TO_WIRE) / 1e3 / ops,
        "dns.codec.decodes_per_query": trace.calls(FROM_WIRE) / ops,
        "dns.codec.encodes_per_query": (count["encode"] or trace.calls(TO_WIRE)) / ops,
        "dns.codec.memo_hit_ratio": ratio(
            memo_calls - trace.report["memo_decodes_with_full_decode"], memo_calls
        ),
        "dns.server.handle_wire_us": trace.layer_us("dns.server"),
        "dns.server.template_hit_ratio": ratio(count["template_hit"], handle_calls),
        "dns.rrl.check_us": trace.layer_us("dns.rrl"),
        "dns.rrl.checks_per_query": count["rrl_check"] / ops,
        "dns.rrl.limited_share": ratio(
            count["rrl_slip"] + count["rrl_drop"], count["rrl_check"]
        ),
        "netsim.network.sample_path_us": trace.layer_us("netsim.network"),
        "netsim.network.exchanges_per_query": exchanges / ops,
        "netsim.network.loss_share": ratio(exchanges - memo_calls, exchanges),
        "netsim.sched.us_per_event": ratio(
            trace.layers.get("netsim.sched", 0) / 1e3, events
        ),
        "netsim.sched.events_per_query": count["sched_event"] / ops,
        "netsim.faults.evals_per_query": count["fault_eval"] / ops,
        "netsim.adversary.attack_query_share": count["attack_query"] / ops,
        "resolvers.resolver.self_us": trace.layer_us("resolvers.resolver"),
        "resolvers.resolver.ns_fetches_per_query": count["ns_fetch"] / ops,
        "resolvers.selectors.select_us": trace.layer_us("resolvers.selectors"),
        "resolvers.selectors.calls_per_query": trace.layer_calls("resolvers.selectors") / ops,
        "resolvers.rrcache.lookup_us": trace.layer_us("resolvers.rrcache"),
        "resolvers.rrcache.lookups_per_query": (count["cache_lookup"] or lookups) / ops,
        "resolvers.rrcache.hit_ratio": ratio(
            trace.returned_value(*LOOKUPS), lookups
        ),
        "resolvers.infracache.us": trace.layer_us("resolvers.infracache"),
        "resolvers.infracache.calls_per_query": trace.layer_calls("resolvers.infracache") / ops,
        "atlas.platform.self_us": trace.layer_us("atlas.platform"),
        "core.store.append_us": trace.layer_us("core.store"),
        "passive.generate_self_us": trace.layer_us("passive"),
        "layers.sum_us": sum(trace.layers.values()) / 1e3 / ops,
        "layers.unattributed_share": ratio(phase_ns - raw_sum_ns, phase_ns),
    }


def tracer_self_check(trace: Trace, count: Counter, rep: dict) -> list[str]:
    """Wrapper call counts must equal the program's own ledger.

    A layer that caches a bound method or rebinds a closure would keep
    running unwrapped; its ledger count would then exceed its span
    count, and the per-layer numbers would silently omit it.
    """
    server_decodes = trace.edge(HANDLE_WIRE, FROM_WIRE)
    expected = {
        "no wrapped call raised": (trace.raised(), 0),
        "handle_wire = template_hit + full decodes": (
            trace.calls(HANDLE_WIRE), count["template_hit"] + server_decodes,
        ),
        "ledger decode = server decodes + memo decodes": (
            count["decode"],
            server_decodes + trace.calls(MEMO_DECODE),
        ),
        "rrl check": (trace.calls(RRL_CHECK), count["rrl_check"]),
        "fault_eval": (trace.calls("netsim.faults:FaultPlan.active"), count["fault_eval"]),
        "attack_query": (
            trace.calls("netsim.adversary:AttackPlan.query_for"), count["attack_query"],
        ),
    }
    if rep["workload"].startswith("campaign"):
        expected["store.append = observations"] = (
            trace.calls("core.store:ObservationStore.append"), rep["ops"],
        )
        expected["resolve calls = ledger query"] = (
            trace.calls(*RESOLVES), count["query"],
        )
        expected["kernel events = ledger sched_event"] = (
            trace.children_of(*KERNEL_LOOPS), count["sched_event"],
        )
    if abs(ratio(
        trace.report["phase_ns"] - sum(trace.report["layer_self_ns"].values()),
        trace.report["phase_ns"],
    )) > 0.02:
        expected["layer self-times partition the phase (±2 %)"] = (1, 0)
    return [
        f"tracer self-check: {name}: {got} != {want}"
        for name, (got, want) in expected.items() if got != want
    ]


def traced_run(workload: str, seed: int, scale: float,
               shape_checks: bool = True) -> tuple[dict[str, float], list[str], int]:
    """One workload's per-layer metrics, complaints, and operations traced.

    ``shape_checks`` are the expectations that define a workload (the
    hostile campaign fetches NS targets, the serve mix is 80 % template
    hits); ``--smoke`` sizes are too small to hold them to.
    """
    def spawn(mode: str, at_scale: float = scale) -> dict:
        return spawn_rep(workload, sub_seed(seed, 0), at_scale, mode)

    traced = spawn("traced")
    metrics: dict[str, float] = {}

    if workload == "serve_mixed":
        # The real server is never wrapped: its numbers are untraced
        # whichever mode asked for them, and are medians over MIN_REPS
        # repetitions like the end-to-end ones.  The traced part is the
        # in-process replay of the same wires through handle_wire.
        reps = [traced] + [spawn("plain") for _ in range(MIN_REPS - 1)]
        _, sent, failed, complaints = verdict(reps)

        def median_of(key: str) -> float:
            return statistics.median(rep[key] for rep in reps)

        ops = traced["queries"]
        trace = Trace(traced["trace"], ops)
        ledger = Counter(traced["ledger"])
        replay = traced["replay"]
        metrics.update(layer_metrics(trace, ledger, ops))
        server_cpu_us = median_of("server_cpu_us_per_query")
        metrics.update({
            "dns.server.fast_path_us": replay["fast_us"],
            "dns.server.slow_path_us": replay["slow_us"],
            "dns.udp.overhead_us": server_cpu_us - replay["handle_us"],
            "dns.udp.p99_us": median_of("open_p99_us"),
            "dns.udp.p999_us": median_of("open_p999_us"),
            "dns.udp.lost": sum(rep["lost"] for rep in reps),
            "dns.udp.gen_late_us": max(rep["gen_late_us"] for rep in reps),
            "dns.udp.closed_p50_us": median_of("closed_p50_us"),
            "serve_p50_us": median_of("open_p50_us"),
            "serve_cpu_us_per_query": server_cpu_us,
            "failed_share": failed / sent,
            "trace_overhead_ratio": traced["replay_traced_wall_s"] / replay["wall_s"],
        })
        complaints += tracer_self_check(trace, ledger, traced)
        if shape_checks and abs(
            metrics["dns.server.template_hit_ratio"] - traced["fast_share"]
        ) > 0.01:
            complaints.append("serve_mixed: template hits are not the fast-path share")
        return metrics, complaints, sent

    plain = spawn("plain")
    complaints = [
        f"traced run: check {name} failed"
        for name, passed in traced["checks"].items() if not passed
    ]
    ops = traced["ops"]
    trace = Trace(traced["trace"], ops)
    ledger = Counter(traced.get("ledger", {}))
    metrics.update(layer_metrics(trace, ledger, ops))
    metrics["trace_overhead_ratio"] = traced["measure_s"] / plain["measure_s"]
    metrics["failed_share"] = plain["sim_failed"] / plain["ops"]
    complaints += tracer_self_check(trace, ledger, traced)
    if traced["sha"] != plain["sha"]:
        complaints.append("traced run produced different output than the plain run")

    if workload == "passive_warm":
        metrics["passive.analyze_s"] = plain["analysis_s"]
        return metrics, complaints, ops

    with_ledger = spawn("ledger")
    metrics.update({
        "resolvers.resolver.attempts_per_query": plain["attempts"] / ops,
        "resolvers.resolver.servfail_share": plain["sim_failed"] / ops,
        "resolvers.rrcache.entries_per_vp": traced["rrcache_entries_per_vp"],
        "atlas.platform.build_vps_s": plain["build_vps_s"],
        "atlas.platform.rss_kib_per_vp": with_ledger["rss_kib_per_vp"],
        "atlas.platform.rss_bytes_per_obs": with_ledger["rss_bytes_per_obs"],
        "core.store.bytes_per_row": plain["store_bytes_per_row"],
        "core.store.sort_canonical_s": plain["sort_canonical_s"],
        "telemetry.costs_overhead_ratio": with_ledger["measure_s"] / plain["measure_s"],
    })
    if workload == "campaign_cold":
        metrics["analysis.us_per_obs"] = plain["analysis_s"] / ops * 1e6
        # Quarter size keeps the fully-instrumented run (every query a
        # trace tree streamed to disk) inside the traced run's time.
        quarter = scale / 4
        logged, bare = spawn("eventlog", quarter), spawn("plain", quarter)
        metrics["telemetry.eventlog_us_per_query"] = (
            logged["measure_s"] / logged["ops"] - bare["measure_s"] / bare["ops"]
        ) * 1e6
    if workload == "campaign_hostile" and shape_checks:
        for name, holds in {
            "ns_fetches_per_query > 0":
                metrics["resolvers.resolver.ns_fetches_per_query"] > 0,
            "template_hit_ratio == 0":
                metrics["dns.server.template_hit_ratio"] == 0,
            "limited_share > 0": metrics["dns.rrl.limited_share"] > 0,
        }.items():
            if not holds:
                complaints.append(f"campaign_hostile: expected {name}")
    return metrics, complaints, ops


def report_per_layer(workload: str, metrics: dict[str, float],
                     spec: dict) -> dict[str, float]:
    """Print and return every declared per-layer metric.

    A layer the workload bypasses did no work: it reads 0.
    """
    units = units_of(spec, "per_layer")
    filled = {name: float(metrics.get(name, 0.0)) for name in units}
    for name, value in filled.items():
        print(f"  {workload:17s} {name:42s} {value:14.4f} {units[name]}")
    return filled


# -- modes ------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def contract_run(args, spec: dict) -> int:
    """One workload, one kind of metric, one JSON line — the driver's call."""
    workload = args.workload
    if args.trace:
        metrics, complaints, ops = traced_run(workload, args.seed, DEFAULT_SCALE)
        metrics = report_per_layer(workload, metrics, spec)
        for complaint in complaints:
            print("FAILED:", complaint)
        print(result_line(
            not complaints, ops, len(complaints), metrics, units_of(spec, "per_layer")
        ))
        return 1 if complaints else 0
    units = units_of(spec, "end_to_end")
    reps = run_repetitions([workload], args.seed, args.seconds)[workload]
    summary = summarize(reps)
    print_end_to_end(workload, summary, units)
    correct, attempted, failed, complaints = verdict(reps)
    for complaint in complaints:
        print("FAILED:", complaint)
    values = {name: row["value"] for name, row in summary.items()}
    print(result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


def full_set(seed: int, seconds: float, spec: dict,
             earlier: dict[str, list[dict]] | None = None) -> tuple[dict, bool, dict]:
    """Every workload's end-to-end summary from one interleaved set.

    Outputs are compared within the set and with the ``earlier`` set's
    repetitions: counts and hashes of an input set must repeat exactly.
    """
    workloads = [row["name"] for row in spec["workloads"]]
    units = units_of(spec, "end_to_end")
    reps = run_repetitions(workloads, seed, seconds)
    summaries, all_correct = {}, True
    for workload in workloads:
        summaries[workload] = summarize(reps[workload])
        print_end_to_end(workload, summaries[workload], units)
        correct, _, _, complaints = verdict(
            reps[workload] + (earlier[workload] if earlier else [])
        )
        for complaint in complaints:
            print("FAILED:", workload, complaint)
        all_correct = all_correct and correct
    return summaries, all_correct, reps


def full_run(args, spec: dict) -> int:
    summaries, correct, _ = full_set(args.seed, args.seconds, spec)
    layers = {}
    for row in spec["workloads"]:
        workload = row["name"]
        metrics, complaints, _ = traced_run(workload, args.seed, DEFAULT_SCALE)
        layers[workload] = report_per_layer(workload, metrics, spec)
        for complaint in complaints:
            print("FAILED:", workload, complaint)
        correct = correct and not complaints
    print(json.dumps({
        "correct": correct,
        "end_to_end": {
            w: {name: row["value"] for name, row in summary.items()}
            for w, summary in summaries.items()
        },
        "per_layer": layers,
    }))
    return 0 if correct else 1


def smoke_run(args, spec: dict) -> int:
    """Every workload at ~1 % size: do the printed names match the spec?"""
    printed_end_to_end: set[str] = set()
    printed_layers: set[str] = set()
    ok = True
    for row in spec["workloads"]:
        workload = row["name"]
        rep = spawn_rep(workload, sub_seed(args.seed, 0), SMOKE_SCALE)
        printed_end_to_end |= set(end_to_end_of(rep))
        correct, _, _, complaints = verdict([rep])
        metrics, traced_complaints, _ = traced_run(
            workload, args.seed, SMOKE_SCALE, shape_checks=False
        )
        printed_layers |= set(metrics)
        print(f"  {workload:17s} end-to-end {sorted(end_to_end_of(rep))}")
        print(f"  {workload:17s} per-layer  {len(metrics)} metrics")
        for complaint in complaints + traced_complaints:
            print("FAILED:", workload, complaint)
            ok = False
    for kind, printed in (("end_to_end", printed_end_to_end),
                          ("per_layer", printed_layers)):
        wanted = {row["name"] for row in spec[kind]}
        if printed != wanted:
            ok = False
            print(f"FAILED: {kind} names differ from BENCHMARK.json:",
                  f"missing {sorted(wanted - printed)}",
                  f"undeclared {sorted(printed - wanted)}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def check_repeat(args, spec: dict) -> int:
    """Two sets of the same code must agree within each metric's bound."""
    first, ok_first, reps = full_set(args.seed, args.seconds, spec)
    second, ok_second, _ = full_set(args.seed, args.seconds, spec, earlier=reps)
    ok = ok_first and ok_second
    for row in spec["end_to_end"]:
        name, bound = row["name"], row["bound"]
        for workload in first:
            a = first[workload][name]["value"]
            b = second[workload][name]["value"]
            agree = 1 / (1 + bound) <= b / a <= 1 + bound
            ok = ok and agree
            print(
                f"  {name:18s} {workload:17s} {a:12.6g} {b:12.6g}"
                f"  ratio {b / a:.4f}  bound {bound:.2f}  "
                + ("ok" if agree else "DISAGREE")
            )
    print(json.dumps({"check_repeat": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced repetitions to run, in seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("benchmarks/suite needs the repository it measures "
              f"(no src/repro under {ROOT})", file=sys.stderr)
        return 2
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [row["name"] for row in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke_run(args, spec)
    if args.check_repeat:
        return check_repeat(args, spec)
    if args.workload is not None:
        return contract_run(args, spec)
    return full_run(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
