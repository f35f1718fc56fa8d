"""Sharded parallel experiment engine (scatter-gather).

A campaign over N probes is embarrassingly parallel *if* no random
stream and no piece of shared state crosses probe boundaries.  PR 3
made that true: every stochastic decision in the simulator derives
from ``(seed, path)`` (see :mod:`repro.seeding`), vantage-point ids
and resolver addresses are computed from the probe alone, and the only
cross-probe coupling left — resolver sharing — is scoped to one AS.

This module exploits it.  :func:`run_parallel` partitions the probe
population into shards *by ASN* (an AS never straddles shards, so the
per-AS sharing state each worker sees matches the serial build), runs
one :class:`~repro.core.experiment.TestbedExperiment` per shard in a
spawn-safe ``multiprocessing`` worker, and scatter-gathers the pieces
back through mergeable reducers:

observations
    concatenated and sorted by ``(timestamp, vp_id)`` — exactly the
    serial emission order (tick-major, vp ascending).
metrics
    :meth:`MetricsRegistry.merge`: counters/gauges add, histogram
    sketches add per-bucket counts and take min/max envelopes.
event log
    a trace line carries nothing private to the worker that wrote it,
    so the merge (:func:`~repro.telemetry.events.merge_shard_logs`)
    sorts the shards' trace lines by (root start, line text) and writes
    them verbatim — so the merged log is byte-identical for any worker
    count, including one.
cost ledger
    :meth:`CostLedger.merge`: integer addition per (phase, counter),
    closing the merged log as it closes a serial one.

The invariant — serial and K-worker runs produce identical merged
analysis output for any K — is what makes ``--workers`` safe to flip
on without re-validating any result.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

from ..atlas.probes import Probe
from ..telemetry import (
    CostLedger,
    EventLogWriter,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_TELEMETRY,
    Note,
    NullRegistry,
    NullTracer,
    RunMeta,
    RunProfiler,
    Telemetry,
    Tracer,
    merge_shard_logs,
    parse_event,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    TestbedExperiment,
    generate_probes,
)
from .store import MeasurementRun, ObservationStore


def partition_probes(probes: list[Probe], shards: int) -> list[list[Probe]]:
    """Split probes into ``shards`` buckets without splitting any AS.

    Resolver sharing (§3.1) is per-AS state inside one platform
    instance, so correctness requires every probe of an AS to land in
    the same bucket.  Within that constraint the split is a greedy
    deterministic bin-packing: AS groups, largest first (ties by ASN),
    onto the least-loaded bucket.  Empty buckets are possible when
    ``shards`` exceeds the number of distinct ASNs.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    groups: dict[int, list[Probe]] = {}
    for probe in sorted(probes, key=lambda p: p.probe_id):
        groups.setdefault(probe.asn, []).append(probe)
    buckets: list[list[Probe]] = [[] for _ in range(shards)]
    loads = [0] * shards
    ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    for _, group in ordered:
        target = min(range(shards), key=lambda index: (loads[index], index))
        buckets[target].extend(group)
        loads[target] += len(group)
    for bucket in buckets:
        bucket.sort(key=lambda p: p.probe_id)
    return buckets


def _run_shard(payload: tuple) -> dict:
    """One shard, in its own process (or inline for ``workers=1``).

    Top-level so it pickles under the spawn start method.  The worker
    bundle mirrors the caller's pillar enablement; the tracer streams
    into an :class:`EventLogWriter` and retains nothing in memory
    (``max_traces=0``) — serialised lines are the transport.
    """
    (
        shard_index, config, probes,
        want_metrics, want_events, want_costs, spill_dir,
    ) = payload
    sink = None
    #: what the merge reads: the sink's lines, or its spilled segment.
    shard_log: list[str] | str = []
    if want_events:
        spill_path = None
        if spill_dir is not None:
            # Memory-bounded transport: the worker streams its lines
            # into a follower-compatible JSONL segment and keeps only a
            # bounded tail buffered, so event volume never scales the
            # worker's footprint.
            spill_path = str(
                Path(spill_dir) / f"shard-{shard_index:04d}.events.jsonl"
            )
        sink = EventLogWriter(path=spill_path)
        shard_log = spill_path if spill_path is not None else sink.lines
    telemetry = Telemetry(
        registry=MetricsRegistry() if want_metrics else NullRegistry(),
        tracer=Tracer(max_traces=0, sink=sink) if want_events else NullTracer(),
        profiler=RunProfiler(),
        events=sink,
        costs=CostLedger() if want_costs else None,
    )
    result = TestbedExperiment(
        config, telemetry=telemetry, probes=probes, shard=shard_index
    ).run()
    if sink is not None:
        sink.close()
    return {
        "shard": shard_index,
        "store": result.run.store,
        "registry": telemetry.registry if want_metrics else None,
        "log": shard_log,
        "server_query_counts": result.server_query_counts,
        "addresses": result.addresses,
        "site_of_address": result.site_of_address,
        "profile": result.profile,
        "costs": result.costs if want_costs else None,
    }


def _merged_note(shard_records: list[list[dict]], name: str) -> Note | None:
    """One campaign note, with per-shard additive fields summed.

    ``vantage_points`` and ``observations`` are per-shard quantities;
    everything else (domain, interval, duration, virtual timestamp) is
    identical across shards by construction.
    """
    notes = [
        record
        for records in shard_records
        for record in records
        if record.get("kind") == "note" and record.get("name") == name
    ]
    if not notes:
        return None
    base = notes[0]["data"]
    data = {
        "domain": base["domain"],
        "interval_s": base["interval_s"],
        "duration_s": base["duration_s"],
        "vantage_points": sum(n["data"]["vantage_points"] for n in notes),
    }
    if "observations" in base:
        data["observations"] = sum(n["data"]["observations"] for n in notes)
    return Note(name=name, data=data, at=max(n["at"] for n in notes))


def run_parallel(
    config: ExperimentConfig,
    workers: int = 1,
    shards: int | None = None,
    telemetry=None,
    spill_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run one campaign sharded over ``workers`` processes and merge.

    ``shards`` defaults to ``workers``; any (workers, shards) choice
    yields identical merged output — the shard layout never touches a
    random stream.  ``workers=1`` runs the shards inline (no process
    pool), through the *same* merge path, so its artifacts — including
    the event log, byte for byte — are the reference the parallel runs
    are tested against.

    ``spill_dir`` bounds worker memory: each shard streams its event
    records into a JSONL segment under that directory instead of
    accumulating them in RAM (an :class:`~repro.telemetry.EventLogWriter`
    with a path).  The merge reads the segments back, so the canonical
    merged log is byte-identical with or without spilling.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    profiler = (
        telemetry.profiler if telemetry.profiler.enabled else RunProfiler()
    )
    shards = workers if shards is None else shards
    want_events = telemetry.tracer.enabled or telemetry.events.enabled
    want_metrics = telemetry.registry.enabled or telemetry.events.enabled
    want_costs = telemetry.costs.enabled

    with profiler.phase("parallel.probes"):
        buckets = [
            bucket
            for bucket in partition_probes(generate_probes(config), shards)
            if bucket
        ]
        if not buckets:
            buckets = [[]]
    if spill_dir is not None:
        spill_dir = str(spill_dir)
        Path(spill_dir).mkdir(parents=True, exist_ok=True)
    payloads = [
        (
            index, config, bucket,
            want_metrics, want_events, want_costs, spill_dir,
        )
        for index, bucket in enumerate(buckets)
    ]

    with profiler.phase("parallel.scatter"):
        if workers == 1 or len(payloads) == 1:
            shard_results = [_run_shard(payload) for payload in payloads]
        else:
            context = multiprocessing.get_context("spawn")
            processes = min(workers, len(payloads))
            with context.Pool(processes=processes) as pool:
                shard_results = pool.map(_run_shard, payloads)

    with profiler.phase("parallel.merge"):
        # Column-level merge: each shard ships its store and the rows
        # are re-sorted to (timestamp, vp_id) — the serial emission
        # order (ticks share one timestamp, VPs fire in vp_id order) —
        # without ever materializing an observation object.
        merged = ObservationStore()
        for result in shard_results:
            merged.merge(result["store"])
        merged.sort_canonical()
        template = shard_results[0]
        run = MeasurementRun(
            domain=config.domain.rstrip("."),
            interval_s=config.interval_s,
            duration_s=config.duration_s,
            store=merged,
        )
        server_query_counts: dict[str, int] = {}
        for result in shard_results:
            for address, count in result["server_query_counts"].items():
                server_query_counts[address] = (
                    server_query_counts.get(address, 0) + count
                )
        server_query_counts = {
            address: server_query_counts[address]
            for address in sorted(server_query_counts)
        }

        merged_registry = (
            telemetry.registry
            if telemetry.registry.enabled
            else MetricsRegistry()
        )
        if want_metrics:
            for result in shard_results:
                if result["registry"] is not None:
                    merged_registry.merge(result["registry"])

        if want_costs:
            # Integer addition per (phase, counter): merge order cannot
            # perturb the merged ledger, so serial and K-worker runs of
            # the same shard partition export identical bytes.
            for result in shard_results:
                if result["costs"]:
                    telemetry.costs.merge(result["costs"])

        # Spilled shards shipped a segment path instead of their lines
        # (the bound protects the *workers* — the merge sees every line).
        trace_lines, shard_records = merge_shard_logs(
            result["log"] for result in shard_results
        )

        if telemetry.tracer.enabled:
            tracer = telemetry.tracer
            kept = trace_lines[:max(0, tracer.max_traces - len(tracer.roots))]
            tracer.roots.extend(parse_event(line).root for line in kept)
            tracer.dropped_traces += len(trace_lines) - len(kept)

        if telemetry.events.enabled:
            _write_merged_log(
                telemetry.events,
                shard_records,
                trace_lines,
                merged_registry,
                telemetry.costs,
            )

    profiler.record("parallel.workers", workers)
    profiler.record("parallel.shards", len(payloads))
    profiler.record("config.num_probes", config.num_probes)
    profiler.record("config.seed", config.seed)
    profiler.count("experiment.runs")
    profiler.count("experiment.observations", len(merged))
    return ExperimentResult(
        config=config,
        run=run,
        addresses=list(template["addresses"]),
        site_of_address=dict(template["site_of_address"]),
        server_query_counts=server_query_counts,
        telemetry=telemetry,
        profile=profiler.as_dict(),
        costs=telemetry.costs.as_dict() if want_costs else {},
        workers=workers,
        shards=len(payloads),
        shard_profiles=[result["profile"] for result in shard_results],
    )


def _write_merged_log(
    sink, shard_records: list[list[dict]], trace_lines: list[str],
    registry: MetricsRegistry, costs,
) -> None:
    """Append the canonical merged event stream to the caller's sink.

    Canonical order mirrors a serial run: run_meta, fault timeline,
    measure.start, traces (canonical order), measure.end, final metrics
    snapshot, then the merged cost ledger when one is kept.
    ``shard.heartbeat`` notes (the live monitor's progress feed) are
    absent: this writer re-emits only the kinds listed above, so
    heartbeats are filtered out by construction and a monitored run
    merges byte-identically to an unmonitored one.
    """
    run_meta = next(
        (
            record
            for records in shard_records
            for record in records
            if record.get("kind") == "run_meta"
        ),
        None,
    )
    if run_meta is not None:
        sink.emit(RunMeta(run=run_meta["run"], at=run_meta.get("at")))
    # Fault and attack transitions are derived from the scenario/profile,
    # so every shard emitted the identical sequence: take the first
    # shard's copy.
    for records in shard_records:
        fault_notes = [
            record
            for record in records
            if record.get("kind") == "note"
            and str(record.get("name", "")).startswith(("fault.", "attack."))
        ]
        if fault_notes:
            for record in fault_notes:
                sink.emit(
                    Note(
                        name=record["name"],
                        data=record["data"],
                        at=record.get("at"),
                    )
                )
            break
    start = _merged_note(shard_records, "measure.start")
    if start is not None:
        sink.emit(start)
    for line in trace_lines:
        sink.emit_line(line)
    end = _merged_note(shard_records, "measure.end")
    if end is not None:
        sink.emit(end)
    snapshot_at = max(
        (
            record["at"]
            for records in shard_records
            for record in records
            if record.get("kind") == "metrics" and record.get("at") is not None
        ),
        default=None,
    )
    sink.emit(MetricsSnapshot(at=snapshot_at, metrics=registry.as_dict()))
    for event in costs.to_events():
        sink.emit(event)
    sink.flush()


__all__ = [
    "partition_probes",
    "run_parallel",
]
