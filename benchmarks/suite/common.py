"""What every workload's repetition shares: sizes, output directory,
the ledger-only telemetry bundle, and the reduction of a trace."""

from __future__ import annotations

import resource
from pathlib import Path

from tracer import calibrate

SUITE = Path(__file__).resolve().parent
OUT = SUITE / "out"

# Sizes at scale 1.0; the suite runs them at one common scale so that
# the contract's repetitions fit its time cap.  The floors keep every
# mix meaningful (bots, busy recursives, all query classes) at --smoke.
# (probes, probes, recursives, queries)
FULL = {"campaign_cold": 2000, "campaign_hostile": 600, "passive_warm": 300, "serve_mixed": 20000}
FLOORS = {"campaign_cold": 40, "campaign_hostile": 40, "passive_warm": 12, "serve_mixed": 400}


def sized(workload: str, scale: float) -> int:
    return max(FLOORS[workload], round(FULL[workload] * scale))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ledger_bundle():
    from repro.telemetry import Telemetry

    return Telemetry.enabled_bundle(
        metrics=False, tracing=False, profiling=False, costs=True
    )


def start_tracer():
    """A tracer with every layer boundary already wrapped."""
    from layers import instrument
    from tracer import Tracer

    tracer = Tracer()
    instrument(tracer)
    return tracer


# -- trace reduction --------------------------------------------------------


def trace_report(tracer, workload: str, root: tuple[str, str], phase_s: float) -> dict:
    """Reduce the span columns to what ``run.py`` reports, and save them.

    Only spans beneath the measured phase's root span count: set-up
    work (zone configuration, VP construction) is outside the phase the
    end-to-end ``us_per_query`` covers.
    """
    roots = tracer.find(*root)
    if len(roots) != 1:
        raise SystemExit(f"expected one {root} span, found {len(roots)}")
    rows = tracer.subtree(roots[0])
    stats = tracer.aggregate(rows)
    inner_ns, outer_ns = calibrate()
    layer_self: dict[str, int] = {}
    layer_net: dict[str, float] = {}
    for name, stat in stats.items():
        layer = name.split(":", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + stat.self_ns
        layer_net[layer] = layer_net.get(layer, 0.0) + stat.net_ns(inner_ns, outer_ns)
    report = {
        "spans": len(rows),
        "root_ns": tracer.dur_ns[roots[0]],
        "phase_ns": int(phase_s * 1e9),
        "span_cost_ns": {"inner": inner_ns, "outer": outer_ns},
        "layer_self_ns": layer_self,
        "layer_net_ns": layer_net,
        # name -> [calls, self_ns, total_ns, raised, returned_value, net_ns]
        "names": {
            name: [stat.calls, stat.self_ns, stat.total_ns, stat.raised,
                   stat.returned_value, stat.net_ns(inner_ns, outer_ns)]
            for name, stat in stats.items()
        },
        "edges": [
            [parent, child, calls]
            for (parent, child), calls in tracer.edges(rows).items()
        ],
        "memo_decodes_with_full_decode": tracer.parents_with_child(
            "dns.codec:ResponseDecodeMemo.decode", "dns.codec:Message.from_wire"
        ),
    }
    tracer.write(
        OUT / f"trace-{workload}.json",
        extra={"workload": workload, "span_cost_ns": report["span_cost_ns"]},
    )
    return report
