"""Command-line interface: run, analyze, and plan from the shell.

Usage (also available as ``python -m repro``):

    repro-dns combos
    repro-dns run --combo 2C --probes 300 --out run.jsonl --events run.events.jsonl
    repro-dns run --scenario ns-outage --attack nxns --no-analyze
    repro-dns faults --duration 60
    repro-dns attack
    repro-dns analyze --run run.jsonl --sites FRA SYD
    repro-dns metrics run.events.jsonl --format json
    repro-dns forensics run.events.jsonl probe-7
    repro-dns slo run.events.jsonl --check
    repro-dns top run.events.jsonl --follow
    repro-dns costs run.events.jsonl --export ledger.json
    repro-dns bench-history --record suite.out
    repro-dns sweep --probes 150
    repro-dns passive --kind root --recursives 250 --out trace.jsonl
    repro-dns plan --clients 500 --sites FRA IAD SYD GRU --home FRA

Only ``run`` starts a campaign: ``--scenario`` injects faults and
``--attack`` an adversarial workload (``faults`` and ``attack`` list the
bundled ones).  The readers (``metrics``, ``forensics``, ``slo``,
``top``, ``costs``) take the event log it wrote with ``--events``.

Global flags (before the subcommand): ``--output FILE`` sends command
output to a file instead of stdout, ``--quiet`` silences progress
notes, ``--log-level`` wires the ``repro.*`` loggers to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from pathlib import Path

from .core.combinations import COMBINATIONS, FIGURE6_INTERVALS_MIN
from .netsim.geo import DATACENTERS


class CliWriter:
    """Routes command output: stdout, a ``--output`` file, or nowhere.

    Two channels, deliberately separate:

    :meth:`emit`
        The command's *product* (tables, dumps, monitor frames).  Goes to
        stdout, or to the ``--output`` file when one is given — so
        results can be saved or piped without shell redirection.
    :meth:`status`
        Progress notes ("running 2C ...").  Always stderr, and
        silenced entirely by ``--quiet``.
    """

    def __init__(self, output: str | None = None, quiet: bool = False):
        self.quiet = quiet
        self.path = Path(output) if output else None
        self._fh = self.path.open("w") if self.path else None

    def emit(self, text: object = "") -> None:
        """One block of command output (adds the trailing newline)."""
        stream = self._fh if self._fh is not None else sys.stdout
        stream.write(str(text) + "\n")

    def status(self, text: object) -> None:
        """A progress note on stderr; suppressed by ``--quiet``."""
        if not self.quiet:
            print(text, file=sys.stderr)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _configure_logging(level_name: str) -> None:
    """Wire the ``repro.*`` logger tree to stderr at the chosen level.

    The package root has a ``NullHandler`` (library etiquette); the CLI
    is an application, so it attaches a real handler — but only one,
    and only to the ``repro`` logger, never the root logger.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    if not any(
        isinstance(handler, logging.StreamHandler)
        and not isinstance(handler, logging.NullHandler)
        for handler in logger.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


def _cmd_combos(args: argparse.Namespace) -> int:
    from .analysis import render_table

    rows = [
        [combo.combo_id, ", ".join(combo.sites), str(combo.paper_vp_count)]
        for combo in COMBINATIONS.values()
    ]
    args.io.emit(render_table(["ID", "locations", "paper VPs"], rows, title="Table 1"))
    return 0


class CliError(Exception):
    """A bad option value found after parsing: ``main`` reports it, exit 2."""


def _campaign_config(args: argparse.Namespace, **overrides):
    """The campaign the options describe (minutes → seconds).

    ``--scenario`` and ``--attack`` are resolved here, a scenario against
    the campaign duration, so an unknown one is a usage error before any
    file is opened.
    """
    from .core import ExperimentConfig

    interval_s, duration_s = args.interval * 60.0, args.duration * 60.0
    if args.scenario is not None:
        from .netsim.faults import ScenarioError, resolve_scenario

        try:
            overrides["scenario"] = resolve_scenario(args.scenario, duration_s)
        except ScenarioError as exc:
            raise CliError(str(exc)) from exc
    if args.attack is not None:
        from .netsim.adversary import AttackError, resolve_attack

        try:
            overrides["attack"] = resolve_attack(args.attack)
        except AttackError as exc:
            raise CliError(str(exc)) from exc
    return ExperimentConfig.for_combination(
        args.combo, num_probes=args.probes, seed=args.seed,
        interval_s=interval_s, duration_s=duration_s, **overrides,
    )


def _run_campaign(args: argparse.Namespace, config):
    """The CLI's one door to :func:`repro.core.run_campaign`.

    It owns the one telemetry rule: ``--events`` streams the event log
    (traces, then the metrics snapshot and the cost ledger it closes
    with), and an attack always bills the ledger its accounting reads;
    otherwise there is no bundle.  The sharding flags, the status notes,
    closing ``--events`` and writing ``--out`` happen here too.
    """
    from .core import run_campaign, save_run

    io = args.io
    telemetry = None
    if args.events or config.attack is not None:
        from .telemetry import Telemetry

        telemetry = Telemetry.enabled_bundle(
            metrics=bool(args.events),
            tracing=bool(args.events),
            event_log=args.events or None,
            costs=True,
        )
    result = run_campaign(
        config,
        telemetry=telemetry,
        workers=args.workers,
        shards=args.shards,
        spill_dir=args.spill_events,
    )
    if result.shard_profiles:
        io.status(
            f"merged {result.shards} shards from {result.workers} worker(s)"
        )
    io.status(
        f"{len(result.observations)} observations from {result.run.vp_count} VPs"
    )
    if args.events:
        telemetry.events.close()
        io.status(f"wrote event log to {args.events}")
    if args.out:
        written = save_run(result.run, args.out)
        io.status(f"wrote {written} observations to {args.out}")
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    io = args.io
    config = _campaign_config(
        args, ipv6=args.ipv6, heartbeat_every_ticks=args.heartbeat_every
    )
    injected = "".join(
        f" under {what} {plan.name!r}"
        for what, plan in (("scenario", config.scenario), ("attack", config.attack))
        if plan is not None
    )
    io.status(
        f"running {args.combo} ({', '.join(COMBINATIONS[args.combo].sites)})"
        f"{injected}: {args.probes} probes, every {args.interval} min "
        f"for {args.duration} min"
    )
    result = _run_campaign(args, config)
    if not args.no_analyze:
        sites = set(COMBINATIONS[args.combo].sites)
        ticks = int(config.duration_s // config.interval_s)
        try:
            blocks = _analyses(result.observations, sites, args.combo, ticks)
        except ValueError as exc:  # a run too short to analyse
            io.status(f"run: {exc}")
            return 2
        _print_blocks(io, blocks)
    _print_injections(io, config, result, gap=not args.no_analyze)
    return 0


def _analyses(observations, sites, combo_id, ticks: int = 30) -> list[str]:
    """The four analyses a campaign prints, rendered, each one block.

    Raises ``ValueError`` when no VP sent enough queries for them."""
    from .analysis import (
        analyze_preference,
        analyze_probe_all,
        analyze_query_share,
        render_preference,
        render_probe_all,
        render_query_share,
        render_table2,
        table2_rows,
    )

    # Short campaigns need a lower per-VP query threshold.
    min_queries = max(3, min(10, ticks - 2))
    return [
        render_probe_all(
            [analyze_probe_all(observations, sites, combo_id, min_queries=min_queries)]
        ),
        render_query_share([analyze_query_share(observations, sites, combo_id)]),
        render_preference(
            [analyze_preference(observations, sites, combo_id, min_queries=min_queries)]
        ),
        render_table2(
            {combo_id: table2_rows(observations, sites, min_queries=min_queries)}
        ),
    ]


def _print_blocks(io: CliWriter, blocks: list[str]) -> None:
    for block in blocks:
        io.emit()
        io.emit(block)


def _cmd_faults(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .netsim.faults import BUILTIN_SCENARIOS, builtin_scenario

    rows = [
        [name, description]
        for name, (_, description) in sorted(BUILTIN_SCENARIOS.items())
    ]
    args.io.emit(
        render_table(["scenario", "description"], rows, title="Bundled fault scenarios")
    )
    if args.duration:
        duration_s = args.duration * 60.0
        for name in sorted(BUILTIN_SCENARIOS):
            scenario = builtin_scenario(name, duration_s)
            args.io.emit()
            args.io.emit(f"{name} @ {args.duration:g} min:")
            for event in scenario.events:
                knobs = "".join(
                    f" {key}={value}" for key, value in event.params().items()
                )
                args.io.emit(
                    f"  {event.kind:<16} {event.target:<6} "
                    f"[{event.start:g}s, {event.end:g}s){knobs}"
                )
    return 0


def _print_injections(io: CliWriter, config, result, gap: bool) -> None:
    """What the campaign injected: the fault timeline, the attack
    timeline and accounting, then the query share per window between
    their transitions.  The plans are rebuilt purely for reporting:
    their window edges are data, so the seed never matters here."""
    plans = []
    if config.scenario is not None:
        from .netsim.faults import FaultPlan

        plans.append(FaultPlan(
            config.scenario,
            seed=0,
            addresses={
                spec.name: address
                for spec, address in zip(config.authoritatives, result.addresses)
            },
        ))
        if gap:
            io.emit()
        _print_timeline(
            io, "fault timeline:", plans[-1],
            "  {at:9.1f}s  {name:<11} {fault:<16} {target} ({address})",
            shown=("fault", "address", "target"),
        )
        gap = True
    if config.attack is not None:
        from .netsim.adversary import AttackPlan

        plans.append(AttackPlan(
            config.attack, seed=0, duration_s=config.duration_s,
            victim_domain=config.domain,
        ))
        if gap:
            io.emit()
        _print_timeline(
            io, "attack timeline:", plans[-1],
            "  {at:9.1f}s  {name:<12} {attack:<20} ({vector})",
            shown=("attack", "vector"),
        )
        _print_amplification(io, result.telemetry.costs)
    if plans:
        _print_fault_windows(io, config, result, plans)


def _print_timeline(io: CliWriter, title: str, plan, layout: str, shown: tuple) -> None:
    """One line per plan transition: ``layout`` places the ``shown``
    fields, every other field that is set trails as ``key=value``."""
    io.emit(title)
    for at, name, data in plan.transitions():
        knobs = "".join(
            f" {key}={value}"
            for key, value in data.items()
            if key not in shown and value is not None
        )
        io.emit(layout.format(at=at, name=name, **data) + knobs)


def _print_fault_windows(io: CliWriter, config, result, plans) -> None:
    """Query share per NS inside each window between the plans' transitions."""
    from .analysis import render_table

    observations = result.observations
    duration_s = config.duration_s
    ns_of_address = {
        address: spec.name
        for spec, address in zip(config.authoritatives, result.addresses)
    }
    boundaries = sorted(
        {0.0, duration_s}
        | {
            at
            for plan in plans
            for at, _, _ in plan.transitions()
            if 0.0 < at < duration_s
        }
    )
    windows = list(zip(boundaries, boundaries[1:]))
    addresses = sorted(ns_of_address)
    rows = []
    for begin, end in windows:
        window = [
            obs for obs in observations if begin <= obs.timestamp < end
        ]
        total = len(window)
        counts = {address: 0 for address in addresses}
        failed = 0
        for obs in window:
            if obs.succeeded and obs.authoritative in counts:
                counts[obs.authoritative] += 1
            elif not obs.succeeded:
                failed += 1
        def share(count):
            return f"{100.0 * count / total:5.1f}%" if total else "-"
        rows.append(
            [f"{begin:g}-{end:g}s", str(total)]
            + [share(counts[address]) for address in addresses]
            + [share(failed)]
        )
    io.emit()
    io.emit(
        render_table(
            ["window", "queries"]
            + [f"{ns_of_address[a]} ({a})" for a in addresses]
            + ["SERVFAIL"],
            rows,
            title="query share per fault window",
        )
    )


def _cmd_attack(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .netsim.adversary import BUILTIN_ATTACKS

    rows = [
        [name, profile.vector, description]
        for name, (profile, description) in sorted(BUILTIN_ATTACKS.items())
    ]
    args.io.emit(
        render_table(
            ["attack", "vector", "description"], rows,
            title="Bundled attack profiles",
        )
    )
    return 0


def _print_amplification(io: CliWriter, costs) -> None:
    """Fetch-amplification + RRL accounting from the cost ledger."""
    from .analysis import render_table

    totals = costs.totals()
    attack_queries = totals.get("attack_query", 0)
    fetches = totals.get("ns_fetch", 0)
    rows = [
        ["client queries", str(totals.get("query", 0))],
        ["attack queries", str(attack_queries)],
        ["glueless NS fetches", str(fetches)],
    ]
    if attack_queries:
        rows.append(
            ["fetch amplification", f"{fetches / attack_queries:.2f}x"]
        )
    checks = totals.get("rrl_check", 0)
    if checks:
        rows.extend([
            ["RRL checks", str(checks)],
            ["RRL slipped (TC)", str(totals.get("rrl_slip", 0))],
            ["RRL dropped", str(totals.get("rrl_drop", 0))],
        ])
    io.emit()
    io.emit(render_table(["metric", "value"], rows, title="attack accounting"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core import load_run

    try:
        run = load_run(args.run)
    except (OSError, ValueError) as exc:
        args.io.status(f"analyze: {exc}")
        return 2
    ticks = int(run.duration_s // run.interval_s) if run.interval_s else 30
    try:
        blocks = _analyses(run.observations, set(args.sites), args.combo, ticks)
    except ValueError as exc:  # a run too short to analyse
        args.io.status(f"analyze: {args.run}: {exc}")
        return 2
    args.io.emit(
        f"{len(run.observations)} observations, {run.vp_count} VPs, domain {run.domain}"
    )
    _print_blocks(args.io, blocks)
    return 0


def _last_event(args: argparse.Namespace, kind, what: str):
    """The last ``kind`` event in ``args.log``, or the exit status.

    An unreadable or malformed log is 2 (``<reader>: <path>: why`` on
    stderr), a readable one without such a record 1.
    """
    from .telemetry import EventLogError, read_events

    found = None
    try:
        for event in read_events(args.log):
            if isinstance(event, kind):
                found = event
    except (OSError, EventLogError) as exc:
        args.io.status(f"{args.command}: {exc}")
        return 2
    if found is None:
        args.io.status(f"{args.command}: {args.log}: no {what} record")
        return 1
    return found


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the closing metrics snapshot of an event log."""
    from .telemetry import MetricsSnapshot, prometheus_text

    snapshot = _last_event(args, MetricsSnapshot, "metrics")
    if isinstance(snapshot, int):
        return snapshot
    text = (
        json.dumps(snapshot.metrics, indent=2, sort_keys=True)
        if args.format == "json"
        else prometheus_text(snapshot.metrics).removesuffix("\n")
    )
    args.io.emit(text)
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Critical paths, latency attribution, and slow-query exemplars."""
    from .telemetry import EventLogError, TraceAnalytics, render_forensics

    io = args.io
    try:
        analytics = TraceAnalytics.from_log(args.log)
    except (OSError, EventLogError) as exc:
        io.status(f"forensics: {exc}")
        return 2
    if not analytics.roots:
        io.status(f"forensics: {args.log} holds no resolution traces")
        return 1
    if args.selector and not analytics.find(args.selector):
        io.status(f"forensics: nothing matches {args.selector!r}")
        return 1
    io.emit(render_forensics(analytics, selector=args.selector, top=args.top))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate SLOs over an event log; score against injected faults."""
    from .telemetry import (
        EventLogError,
        SLOError,
        TraceAnalytics,
        default_slos,
        evaluate_slos,
        render_slo_report,
    )
    from .telemetry.slo import load_slo_spec

    io = args.io
    try:
        analytics = TraceAnalytics.from_log(args.log)
        slos = (
            load_slo_spec(args.spec)
            if args.spec
            else default_slos(window_s=args.window)
        )
        report = evaluate_slos(
            analytics.roots,
            slos,
            faults=analytics.fault_windows,
            slack_s=args.slack,
        )
    except (OSError, EventLogError, SLOError) as exc:
        io.status(f"slo: {exc}")
        return 2
    io.emit(render_slo_report(report))
    alerting = any(report.alerts[slo.name] for slo in report.slos)
    return 1 if alerting and args.check else 0


def _follow(args: argparse.Namespace, title: str):
    """Tail a growing log into a monitor, a frame per batch of events.

    Ends when the run finalizes, after ``--max-frames`` frames, or after
    ``--idle-timeout`` seconds without new events.
    """
    import time

    from .telemetry import CampaignMonitor, EventLogFollower

    io = args.io
    monitor = CampaignMonitor()
    frames = 0
    with EventLogFollower(args.log) as follower:
        deadline = time.monotonic() + args.idle_timeout
        while True:
            batch = follower.poll()
            if batch:
                deadline = time.monotonic() + args.idle_timeout
                monitor.consume(batch)
                frames += 1
                if not monitor.finished:
                    io.status(monitor.render(title=title))
                    io.status("")
                if monitor.finished or 0 < args.max_frames <= frames:
                    return monitor
            elif time.monotonic() >= deadline:
                io.status(
                    f"no new events for {args.idle_timeout:g}s; "
                    "rendering what arrived"
                )
                return monitor
            time.sleep(args.refresh)


def _cmd_top(args: argparse.Namespace) -> int:
    """The campaign monitor over an event log, finished or still growing."""
    from .telemetry import EventLogError, read_events, replay_monitor

    title = f"repro-dns top — {args.log}"
    try:
        monitor = (
            _follow(args, title)
            if args.follow
            else replay_monitor(list(read_events(args.log)))
        )
    except (OSError, EventLogError) as exc:
        args.io.status(f"top: {exc}")
        return 2
    args.io.emit(monitor.render(title=title))
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    """The per-query cost ledger an event log closes with."""
    from .telemetry import CostLedger, CostsEvent

    event = _last_event(args, CostsEvent, "costs")
    if isinstance(event, int):
        return event
    ledger = CostLedger.from_dict(event.costs)
    if args.export:
        ledger.write(args.export)
        args.io.status(f"wrote cost ledger to {args.export}")
    args.io.emit(ledger.render())
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    """Record a suite run and render the append-only bench trajectory."""
    from .telemetry import history

    io = args.io
    try:
        spec = history.load_spec()
        if args.record:
            text = (
                sys.stdin.read() if args.record == "-"
                else Path(args.record).read_text()
            )
            result = history.parse_suite_output(text)
            path = history.append_entry(args.dir, result, history.git_commit())
            io.status(f"recorded {path}")
        entries, retired = history.load_history(args.dir)
    except (OSError, history.HistoryError) as exc:
        io.status(f"bench-history: {exc}")
        return 2
    io.emit(history.render_history(entries, spec, args.metrics, args.last, retired))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import analyze_interval_sweep, render_interval_sweep
    from .core import run_combination

    io = args.io
    runs = {}
    for minutes in args.intervals:
        io.status(f"running 2C at {minutes}-minute interval ...")
        duration = max(3600.0, minutes * 60.0 * 6)
        result = run_combination(
            "2C",
            num_probes=args.probes,
            interval_s=minutes * 60.0,
            duration_s=duration,
            seed=args.seed,
        )
        runs[float(minutes)] = result.observations
    io.emit(render_interval_sweep(analyze_interval_sweep(runs, args.reference)))
    return 0


def _cmd_passive(args: argparse.Namespace) -> int:
    from .analysis import analyze_rank_bands, render_rank_bands
    from .passive import generate_ditl_trace, generate_nl_trace, save_trace

    io = args.io
    if args.kind == "root":
        trace = generate_ditl_trace(num_recursives=args.recursives, seed=args.seed)
        target_count, label = 10, "Root, 10 of 13 letters"
    else:
        trace = generate_nl_trace(num_recursives=args.recursives, seed=args.seed)
        target_count, label = 4, ".nl, 4 of 8 NSes"
    io.emit(
        f"{trace.query_count} captured queries from "
        f"{trace.recursive_count()} recursives"
    )
    if args.out:
        save_trace(trace, args.out)
        io.status(f"wrote trace to {args.out}")
    result = analyze_rank_bands(
        trace.queries_by_recursive(),
        target_count=target_count,
        min_queries=args.min_queries,
    )
    io.emit()
    io.emit(render_rank_bands(result, label))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a zone file over real UDP and TCP sockets, on this thread."""
    from .dns import AuthoritativeServer, DnsError, parse_zone_text
    from .dns.listener import Listener

    io = args.io
    try:
        zone = parse_zone_text(Path(args.zone).read_text(), args.origin)
        zone.validate()
        engine = AuthoritativeServer(args.server_id, [zone])
        listener = Listener(engine, host=args.host, port=args.port)
    except (DnsError, OSError) as exc:
        raise CliError(f"serve: {args.zone}: {exc}") from None
    host, port = listener.address
    io.emit(f"serving {zone.origin.to_text()} on {host}:{port} (udp+tcp)")
    io.status("Ctrl-C to stop")
    try:
        listener.serve_forever(args.max_queries)
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    io.emit(f"served {engine.stats.queries} queries")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    """Regenerate the full paper-vs-measured scorecard."""
    from .analysis import build_scorecard
    from .core import run_combination

    io = args.io

    def get_run(combo_id: str):
        io.status(f"running {combo_id} ...")
        return run_combination(combo_id, num_probes=args.probes, seed=args.seed)

    card = build_scorecard(get_run, args.probes // 2, args.recursives, args.seed)
    io.emit(card.render())
    misses = card.misses()
    io.emit(
        f"\n{len(card.measured) - len(misses)}/{len(card.measured)} "
        "claims within tolerance"
    )
    return 0 if not misses else 1


def _cmd_dig(args: argparse.Namespace) -> int:
    """Query a real DNS server (pairs with ``serve``)."""
    from .dns import DnsError, RRClass, RRType
    from .dns.listener import query_tcp, query_with_tcp_fallback

    io = args.io
    rrtype = RRType.from_text(args.rrtype)
    rrclass = RRClass.from_text(args.rrclass)
    address = (args.server, args.port)
    try:
        if args.tcp:
            response = query_tcp(
                address, args.name, rrtype, rrclass, timeout=args.timeout
            )
        else:
            response, used_tcp = query_with_tcp_fallback(
                address, address, args.name, rrtype, rrclass, timeout=args.timeout
            )
            if used_tcp:
                io.status(";; truncated — retried over TCP")
    except (DnsError, OSError) as exc:
        transport = "tcp" if args.tcp else "udp"
        raise CliError(
            f"dig: {args.server}:{args.port} ({transport}): "
            f"{str(exc) or type(exc).__name__}"
        ) from None
    io.emit(response.to_text())
    return 0 if response.rcode == 0 else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .atlas import ProbeGenerator
    from .core import DeploymentPlanner, SelectionModel, sidn_style_designs

    clients = ProbeGenerator(rng=random.Random(args.seed)).generate(args.clients)
    planner = DeploymentPlanner(
        clients, selection=SelectionModel(latency_sensitive_share=args.latency_share)
    )
    designs = sidn_style_designs(
        anycast_sites=tuple(args.sites), home_site=args.home
    )
    rows = [
        [
            ev.name,
            str(ev.anycast_count),
            f"{ev.mean_expected_ms:.1f}",
            f"{ev.p90_expected_ms:.1f}",
            f"{ev.mean_worst_ms:.1f}",
        ]
        for ev in planner.rank(designs)
    ]
    args.io.emit(
        render_table(
            ["design", "anycast", "mean(ms)", "p90(ms)", "worst-NS(ms)"],
            rows,
            title=f"NS-set designs over {args.clients} clients",
        )
    )
    return 0


def _number(kind, minimum, exclusive: bool = False, maximum=None, scale=1):
    """argparse ``type=``: a finite int/float no smaller than ``minimum``
    (``exclusive``: strictly larger) and no larger than ``maximum`` (if
    given), rejected with a usage error.  ``scale`` converts the value
    to the unit it is used in (60 for minutes), which must stay finite."""

    def parse(text: str):
        value = kind(text)
        # (written so that NaN, which compares false both ways, fails)
        if not (value > minimum if exclusive else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if exclusive else '>='} {minimum}, got {text}"
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {text}")
        if value * scale == float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    # argparse names the type in "invalid int value: 'x'"
    parse.__name__ = kind.__name__
    return parse


def _prefixes(text: str) -> list[str] | None:
    """argparse ``type=`` for ``--metrics a,b`` (nothing named = the default)."""
    return [prefix for prefix in text.split(",") if prefix] or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Reproduction toolkit for 'Recursives in the Wild' (IMC 2017)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write command output to FILE instead of stdout",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="silence progress notes (stderr)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr level for the repro.* loggers (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("combos", help="list the Table 1 combinations").set_defaults(
        func=_cmd_combos
    )

    run_parser = sub.add_parser(
        "run", help="run a testbed campaign, optionally under a fault "
        "scenario and/or an attack"
    )
    # which campaign: what _campaign_config reads (minutes → seconds)
    run_parser.add_argument("--combo", default="2C", choices=sorted(COMBINATIONS))
    run_parser.add_argument("--probes", type=_number(int, 1), default=300)
    run_parser.add_argument(
        "--interval", type=_number(float, 0, exclusive=True, scale=60),
        default=2.0, help="minutes",
    )
    run_parser.add_argument(
        "--duration", type=_number(float, 0, scale=60), default=60.0,
        help="minutes",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--ipv6", action="store_true")
    run_parser.add_argument(
        "--scenario", metavar="NAME|FILE",
        help="inject a fault timeline: a bundled scenario name "
        "(see 'faults') or a scenario JSON file",
    )
    run_parser.add_argument(
        "--attack", metavar="NAME|FILE",
        help="run an adversarial workload: a bundled attack name "
        "(see 'attack') or an attack-profile JSON file",
    )
    # how to run it: what _run_campaign hands the engine
    run_parser.add_argument(
        "--workers", type=_number(int, 1), default=1,
        help="shard the probe population over N processes; merged output "
        "is identical for any N (default: 1, in-process)",
    )
    run_parser.add_argument(
        "--shards", type=_number(int, 0), default=0,
        help="shard count when it should differ from --workers "
        "(0 = one shard per worker); forces the sharded engine even "
        "with --workers 1",
    )
    run_parser.add_argument(
        "--spill-events", metavar="DIR",
        help="with --workers/--shards: each worker spills its event "
        "records to DIR/shard-NNNN.events.jsonl instead of buffering "
        "them in memory; the merged log is byte-identical either way",
    )
    # where the run goes: what _run_campaign writes
    run_parser.add_argument("--out", help="save observations as JSONL")
    run_parser.add_argument(
        "--events", metavar="FILE",
        help="stream a telemetry event log (JSONL) to FILE; it closes "
        "with the metrics snapshot and the cost ledger, for the readers",
    )
    run_parser.add_argument(
        "--heartbeat-every", type=_number(int, 0), default=0, metavar="TICKS",
        help="emit a shard.heartbeat note every N measurement ticks "
        "for 'repro-dns top --follow' (0 = off; never affects results)",
    )
    run_parser.add_argument(
        "--no-analyze", action="store_true",
        help="skip the post-run figure tables (for smoke campaigns too "
        "short or too large for the per-VP query thresholds)",
    )
    run_parser.set_defaults(func=_cmd_run)

    analyze_parser = sub.add_parser("analyze", help="analyze a saved run")
    analyze_parser.add_argument("--run", required=True, help="JSONL run file")
    analyze_parser.add_argument("--sites", nargs="+", required=True)
    analyze_parser.add_argument("--combo", default="?", help="label for the tables")
    analyze_parser.set_defaults(func=_cmd_analyze)

    metrics_parser = sub.add_parser(
        "metrics", help="dump an event log's closing metrics snapshot"
    )
    metrics_parser.add_argument("log", help="a saved event log (JSONL)")
    metrics_parser.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="Prometheus text (default) or JSON sidecar",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)

    forensics_parser = sub.add_parser(
        "forensics",
        help="critical paths, latency attribution, and slow-query "
        "exemplars from an event log",
    )
    forensics_parser.add_argument("log", help="a saved event log (JSONL)")
    forensics_parser.add_argument(
        "selector", nargs="?", default=None,
        help="focus on matching traces: trace-<id>, probe-<id>, or a "
        "qname substring (default: the full report)",
    )
    forensics_parser.add_argument(
        "--top", type=_number(int, 0), default=3,
        help="slow-query exemplars to show (default: 3)",
    )
    forensics_parser.set_defaults(func=_cmd_forensics)

    slo_parser = sub.add_parser(
        "slo",
        help="evaluate SLOs over an event log and score burn alerts "
        "against the injected fault timeline",
    )
    slo_parser.add_argument("log", help="a saved event log (JSONL)")
    slo_parser.add_argument(
        "--spec", metavar="FILE",
        help="JSON list of SLO definitions (default: the built-in set)",
    )
    slo_parser.add_argument(
        "--window", type=float, default=120.0, metavar="SEC",
        help="rolling window width for the built-in SLOs "
        "(default: 120s; ignored with --spec)",
    )
    slo_parser.add_argument(
        "--slack", type=float, default=None, metavar="SEC",
        help="detection slack past fault end when scoring "
        "(default: one window)",
    )
    slo_parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any SLO raised a burn alert",
    )
    slo_parser.set_defaults(func=_cmd_slo)

    top_parser = sub.add_parser(
        "top",
        help="campaign monitor over an event log: QPS, p99, per-NS share, "
        "per-shard progress, then the run's scorecard",
    )
    top_parser.add_argument("log", help="an event log (JSONL), saved or growing")
    top_parser.add_argument(
        "--follow", action="store_true",
        help="tail the file as it grows (a running 'run --events LOG "
        "--heartbeat-every N'), a frame per batch, until the run finalizes",
    )
    top_parser.add_argument(
        "--refresh", type=_number(float, 0), default=0.2, metavar="SEC",
        help="poll interval while tailing (default: 0.2s)",
    )
    top_parser.add_argument(
        "--idle-timeout", type=_number(float, 0), default=30.0, metavar="SEC",
        help="give up after SEC without new events (default: 30)",
    )
    top_parser.add_argument(
        "--max-frames", type=_number(int, 0), default=0, metavar="N",
        help="stop after N rendered frames (0 = until the run ends)",
    )
    top_parser.set_defaults(func=_cmd_top)

    costs_parser = sub.add_parser(
        "costs", help="the per-query cost ledger an event log closes with"
    )
    costs_parser.add_argument("log", help="a saved event log (JSONL)")
    costs_parser.add_argument(
        "--export", metavar="FILE",
        help="write the ledger as canonical JSON (byte-identical for "
        "logs of equal shard count; CI compares serial vs sharded with cmp)",
    )
    costs_parser.set_defaults(func=_cmd_costs)

    history_parser = sub.add_parser(
        "bench-history",
        help="bench trajectory: record a suite run, render the trend",
    )
    history_parser.add_argument(
        "--dir", default="benchmarks/history",
        help="history directory (default: benchmarks/history)",
    )
    history_parser.add_argument(
        "--record", metavar="FILE",
        help="append the run whose saved suite output is FILE (- for stdin)",
    )
    history_parser.add_argument(
        "--metrics", type=_prefixes, metavar="PREFIXES",
        help="comma-separated metric-name prefixes to show (default: end-to-end)",
    )
    history_parser.add_argument(
        "--last", type=_number(int, 1), default=8,
        help="entries shown in the trend table (default: 8)",
    )
    history_parser.set_defaults(func=_cmd_bench_history)

    sweep_parser = sub.add_parser("sweep", help="Figure 6 interval sweep (2C)")
    sweep_parser.add_argument("--probes", type=int, default=150)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--intervals", nargs="+", type=int, default=list(FIGURE6_INTERVALS_MIN)
    )
    sweep_parser.add_argument("--reference", default="FRA")
    sweep_parser.set_defaults(func=_cmd_sweep)

    passive_parser = sub.add_parser("passive", help="synthesize a production trace")
    passive_parser.add_argument("--kind", choices=("root", "nl"), default="root")
    passive_parser.add_argument("--recursives", type=int, default=250)
    passive_parser.add_argument("--min-queries", type=int, default=250)
    passive_parser.add_argument("--seed", type=int, default=2)
    passive_parser.add_argument("--out", help="save trace as JSONL")
    passive_parser.set_defaults(func=_cmd_passive)

    scorecard_parser = sub.add_parser(
        "scorecard", help="regenerate the paper-vs-measured scorecard"
    )
    scorecard_parser.add_argument("--probes", type=int, default=300)
    scorecard_parser.add_argument("--recursives", type=int, default=250)
    scorecard_parser.add_argument("--seed", type=int, default=20170412)
    scorecard_parser.set_defaults(func=_cmd_scorecard)

    dig_parser = sub.add_parser("dig", help="query a real DNS server")
    dig_parser.add_argument("server", help="server address")
    dig_parser.add_argument("name", help="query name")
    dig_parser.add_argument("rrtype", nargs="?", default="A")
    dig_parser.add_argument(
        "-p", "--port", type=_number(int, 0, maximum=65535), default=53
    )
    dig_parser.add_argument("--rrclass", default="IN")
    dig_parser.add_argument("--tcp", action="store_true")
    dig_parser.add_argument(
        "--timeout", type=_number(float, 0, exclusive=True), default=3.0
    )
    dig_parser.set_defaults(func=_cmd_dig)

    serve_parser = sub.add_parser("serve", help="serve a zone file over UDP/TCP")
    serve_parser.add_argument("--zone", required=True, help="master-file path")
    serve_parser.add_argument("--origin", required=True, help="zone origin")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=_number(int, 0, maximum=65535), default=5353
    )
    serve_parser.add_argument("--server-id", default="repro-authoritative")
    serve_parser.add_argument(
        "--max-queries", type=_number(int, 0), default=0,
        help="stop after N queries (0 = run until interrupted)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    plan_parser = sub.add_parser("plan", help="evaluate NS-set designs (§7)")
    plan_parser.add_argument("--clients", type=int, default=500)
    plan_parser.add_argument(
        "--sites", nargs="+", default=["FRA", "IAD", "SYD", "GRU"],
        choices=sorted(DATACENTERS),
    )
    plan_parser.add_argument("--home", default="FRA", choices=sorted(DATACENTERS))
    plan_parser.add_argument("--latency-share", type=float, default=0.5)
    plan_parser.add_argument("--seed", type=int, default=0)
    plan_parser.set_defaults(func=_cmd_plan)

    faults_parser = sub.add_parser(
        "faults", help="list the bundled fault scenarios (run --scenario)"
    )
    faults_parser.add_argument(
        "--duration", type=_number(float, 0, scale=60), default=0.0,
        metavar="MIN",
        help="also expand each scenario's event timeline for a "
        "campaign of MIN minutes",
    )
    faults_parser.set_defaults(func=_cmd_faults)

    sub.add_parser(
        "attack", help="list the bundled attack profiles (run --attack): "
        "NXNSAttack, water torture"
    ).set_defaults(func=_cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    args.io = CliWriter(output=args.output, quiet=args.quiet)
    try:
        return args.func(args)
    except CliError as exc:
        args.io.status(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a pager): exit quietly
        # like a unix filter.  Point stdout at devnull first so the
        # interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention
    finally:
        args.io.close()


if __name__ == "__main__":
    raise SystemExit(main())
