"""Which public functions of which layer the traced run wraps.

A layer is a module (or a family of modules doing one job, like the
selector implementations) of ``repro``; every span is billed to exactly
one.  The wrappers are installed on the *classes* before the workload
builds any object, so bound methods captured at construction time (the
network's ``engine.handle_wire`` handlers, for one) already point at
them.  The one per-instance rebinding in the program,
``ObservationStore._bind_append``, is followed by wrapping the closure
it installs.  ``run.py`` cross-checks wrapper call counts against the
program's own cost ledger, so a function that escapes its wrapper
fails the run instead of silently under-reporting a layer.
"""

from __future__ import annotations

import functools

from tracer import Tracer


def _all_subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def instrument(tracer: Tracer) -> None:
    """Install span wrappers on every layer boundary."""
    from repro.atlas.platform import AtlasPlatform
    from repro.core.store import ObservationStore
    from repro.dns.message import Message, ResponseDecodeMemo
    from repro.dns.rrl import ResponseRateLimiter
    from repro.dns.server import AuthoritativeServer
    from repro.netsim.adversary import AttackPlan
    from repro.netsim.faults import FaultPlan
    from repro.netsim.network import SimNetwork
    from repro.netsim.sched import EventKernel
    from repro.passive import PassiveTraceGenerator
    from repro.resolvers import (
        InfrastructureCache,
        RecordCache,
        RecursiveResolver,
        ServerSelector,
    )

    patch = tracer.patch

    for attr in ("from_wire", "to_wire"):
        patch(Message, attr, "dns.codec")
    patch(ResponseDecodeMemo, "decode", "dns.codec")

    patch(AuthoritativeServer, "handle_wire", "dns.server")
    patch(ResponseRateLimiter, "check", "dns.rrl")

    patch(SimNetwork, "sample_path", "netsim.network")
    patch(SimNetwork, "round_trip", "netsim.network")
    # transmit(self, kernel, location, client, dst, payload, on_result)
    patch(SimNetwork, "transmit", "netsim.network", callback_arg=(6, "on_result"))
    patch(FaultPlan, "active", "netsim.faults")
    patch(AttackPlan, "query_for", "netsim.adversary")

    # call_at(self, time, fn, arg): call_later funnels into call_at.
    patch(EventKernel, "call_at", "netsim.sched", callback_arg=(2, "fn"))
    for attr in ("run", "run_until", "step"):
        patch(EventKernel, attr, "netsim.sched")

    patch(RecursiveResolver, "resolve", "resolvers.resolver")
    # resolve_event(self, qname, qtype, kernel, done)
    patch(
        RecursiveResolver, "resolve_event", "resolvers.resolver",
        callback_arg=(4, "done"),
    )
    for cls in [ServerSelector, *_all_subclasses(ServerSelector)]:
        for attr in ("select", "on_response", "on_timeout"):
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                patch(cls, attr, "resolvers.selectors")
    for attr in ("lookup", "lookup_negative", "put", "put_negative"):
        patch(RecordCache, attr, "resolvers.rrcache")
    # Every liveness-respecting read (`entry`, `srtt`) funnels into `get`.
    for attr in ("get", "stale_entry", "observe_rtt", "observe_timeout", "decay"):
        patch(InfrastructureCache, attr, "resolvers.infracache")

    for attr in ("build_vantage_points", "configure_zone", "measure"):
        patch(AtlasPlatform, attr, "atlas.platform")

    patch(ObservationStore, "sort_canonical", "core.store")
    bind_append = ObservationStore._bind_append

    @functools.wraps(bind_append)
    def bind_and_wrap(store) -> None:
        bind_append(store)
        store.append = tracer.wrap(store.append, "core.store", "ObservationStore.append")

    ObservationStore._bind_append = bind_and_wrap

    patch(PassiveTraceGenerator, "__init__", "passive")
    patch(PassiveTraceGenerator, "generate", "passive")


def current_rss_kib() -> int:
    """This process's resident set right now (not its peak), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def gauge_calls(owner, attr: str, gauge, growth: dict[str, float]) -> None:
    """Add what ``gauge()`` grows by across each ``owner.attr`` call to
    ``growth[attr]``.

    ``time.perf_counter`` makes it a stopwatch and :func:`current_rss_kib`
    a memory probe.  For functions called once per repetition, where two
    readings cost nothing: the untraced run stays untraced.
    """
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def gauged(*args, **kwargs):
        before = gauge()
        try:
            return fn(*args, **kwargs)
        finally:
            growth[attr] = growth.get(attr, 0) + gauge() - before

    setattr(owner, attr, gauged)
