"""The recursive resolver: iterative resolution over the simulated network.

A :class:`RecursiveResolver` owns a record cache, an infrastructure
cache, and a :class:`~repro.resolvers.base.ServerSelector`.  It resolves
names by walking referrals from the deepest zone it knows servers for
(root hints and/or stub zones), exactly like the recursives between the
paper's vantage points and its authoritatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..dns.message import HEADER_STRUCT, QUESTION_TAIL_STRUCT, Message
from ..dns.name import Name
from ..dns.rdata import TXT
from ..dns.records import ResourceRecord
from ..dns.types import Rcode, RRClass, RRType
from ..netsim.geo import Location
from ..netsim.network import DeliveryError, SimNetwork
from ..netsim.sched import EventKernel
from ..seeding import CounterStream, default_rng
from ..telemetry import NULL_SPAN, NULL_TELEMETRY
from .base import ServerSelector
from .infracache import InfrastructureCache
from .rrcache import RecordCache

CHAOS_SELF_NAMES = (
    Name.from_text("id.server."),
    Name.from_text("hostname.bind."),
)

MAX_REFERRALS = 16

#: nesting bound for glueless-NS sub-resolutions (an NS target whose
#: resolution needs another glueless delegation, and so on).  Real
#: resolvers bound this chase; without a bound a crafted zone could
#: recurse indefinitely.
MAX_FETCH_DEPTH = 4

#: response classification codes of the referral walk.
_NXDOMAIN, _ERROR, _REFERRAL, _DEAD_REFERRAL, _ANSWER, _NODATA = range(6)

#: the QTYPE / QCLASS=IN tail of a query's question, per known type
_QUESTION_TAILS = {
    rrtype: QUESTION_TAIL_STRUCT.pack(rrtype, RRClass.IN) for rrtype in RRType
}


@dataclass(frozen=True)
class ExchangeRecord:
    """One query/response exchange with an authoritative."""

    address: str
    rtt_ms: float | None
    lost: bool
    served_by: str


@dataclass(slots=True)
class ResolutionResult:
    """Outcome of one recursive resolution.

    ``answers`` and ``exchanges`` stay the empty tuple until something is
    put in them: one result per in-flight query is made, and most
    never record an exchange.
    """

    qname: Name
    qtype: RRType
    rcode: Rcode | None = None
    answers: list[ResourceRecord] | tuple = ()
    served_by: str = ""          # site code of the final answering server
    final_address: str = ""      # service address the final answer came from
    rtt_ms: float | None = None  # RTT of the final exchange
    #: exchange attempts made (always maintained, a bare int); equals
    #: ``len(exchanges)`` whenever exchange recording is on.
    attempts: int = 0
    #: per-exchange records — populated only when the resolver's
    #: ``record_exchanges`` is on (telemetry/ledger active, or forced).
    exchanges: list[ExchangeRecord] | tuple = ()
    from_cache: bool = False
    #: glueless-NS sub-resolutions spawned by this client query (all
    #: nesting levels) — the NXNSAttack fetch-amplification numerator.
    ns_fetches: int = 0

    @property
    def succeeded(self) -> bool:
        return self.rcode == Rcode.NOERROR and bool(self.answers)

    def txt_value(self) -> str | None:
        """The first TXT string in the answer — the paper's site marker."""
        for record in self.answers:
            value = getattr(record.rdata, "value", None)
            if value is not None:
                return value
        return None


class RecursiveResolver:
    """A recursive resolver attached to the simulated network."""

    __slots__ = (
        "address", "location", "network", "selector", "telemetry",
        "infra_cache", "record_cache", "record_exchanges", "timeout_ms",
        "max_retries", "rng", "stub_zones", "queries_sent", "max_fetch",
        "max_fetch_per_delegation", "ns_fetches", "_response_memo",
    )

    def __init__(
        self,
        address: str,
        location: Location,
        network: SimNetwork,
        selector: ServerSelector,
        infra_ttl_s: float = 600.0,
        timeout_ms: float = 800.0,
        max_retries: int = 3,
        rng: random.Random | CounterStream | None = None,
        telemetry=None,
        record_exchanges: bool | None = None,
        max_fetch: int | None = None,
        max_fetch_per_delegation: int | None = None,
    ):
        self.address = address
        self.location = location
        self.network = network
        self.selector = selector
        if telemetry is None:
            # Default to the network's bundle: wiring telemetry into the
            # shared SimNetwork instruments every attached resolver.
            telemetry = getattr(network, "telemetry", None)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            selector.telemetry = self.telemetry
        self.infra_cache = InfrastructureCache(ttl_s=infra_ttl_s)
        self.record_cache = RecordCache()
        self.record_cache.bind_clock(network.clock)
        # Per-exchange ExchangeRecord allocation is opt-in: campaigns
        # only need the attempt *count* unless telemetry or the cost
        # ledger wants the full exchange detail.  ``None`` auto-gates on
        # those pillars; tests and tools can force it on explicitly.
        if record_exchanges is None:
            record_exchanges = (
                self.telemetry.enabled or self.telemetry.costs.enabled
            )
        self.record_exchanges = record_exchanges
        self.timeout_ms = timeout_ms
        self.max_retries = max_retries
        # Derived, not hash()-based: str hashes vary per process under
        # PYTHONHASHSEED randomization, which silently made the default
        # stream differ between spawned workers and the parent.
        self.rng = (
            rng if rng is not None
            else default_rng("resolvers.resolver", address)
        )
        #: zone origin -> authoritative service addresses; replaced, never
        #: mutated, so resolvers that know the same zones share one table.
        self.stub_zones: dict[Name, tuple[str, ...]] = {}
        self.queries_sent = 0
        #: MaxFetch-style mitigations (NXNSAttack): total glueless-NS
        #: sub-resolutions allowed per client query, and how many NS
        #: targets of a single delegation may be chased.  ``None`` means
        #: unmitigated (the pre-2020 resolver behaviour the attack hit).
        self.max_fetch = max_fetch
        self.max_fetch_per_delegation = max_fetch_per_delegation
        #: resolver-lifetime count of glueless-NS sub-resolutions.
        self.ns_fetches = 0
        # Template-shaped responses (same server template, different
        # probe label) decode through the network's canary-certified memo.
        self._response_memo = network.response_memo

    # -- configuration -----------------------------------------------------

    def add_stub_zone(
        self, origin: Name | str, addresses: list[str] | tuple[str, ...]
    ) -> None:
        """Teach the resolver the NS addresses of a zone (like cached NS).

        The resolver gets a new table: one it shares with others is
        left as it is.
        """
        if isinstance(origin, str):
            origin = Name.from_text(origin)
        # Interned: every resolver shares one origin object (and its
        # cached hash/wire), so suffix walks and cache keys stay cheap;
        # a tuple of addresses is shared as it is, not copied.
        self.stub_zones = {**self.stub_zones, origin.intern(): tuple(addresses)}

    def _deepest_known_zone(self, qname: Name) -> tuple[Name, tuple] | None:
        best: tuple[Name, tuple] | None = None
        for origin, addresses in self.stub_zones.items():
            if qname.is_subdomain_of(origin):
                if best is None or len(origin) > len(best[0]):
                    best = (origin, addresses)
        return best

    # -- resolution -----------------------------------------------------------

    def resolve(
        self,
        qname: Name | str,
        qtype: RRType,
        rrclass: RRClass = RRClass.IN,
    ) -> ResolutionResult:
        """Resolve a name, using caches, selection, retries, and referrals.

        Runs :meth:`resolve_event`'s state machine on a private kernel
        over the network's clock and drains it, so the clock advances
        to the resolution's completion time (every RTT and timeout wait
        included).  This is a top-level call: never make it from inside
        a kernel event on the same clock, nor while another kernel
        holds queued events on it — the drain would move time past
        them.  Code already on a kernel calls :meth:`resolve_event`.
        """
        kernel = EventKernel(clock=self.network.clock, costs=self.telemetry.costs)
        finished: list[ResolutionResult] = []
        self._begin(qname, qtype, rrclass, kernel, finished.append)
        kernel.run()
        return finished[0]

    def resolve_event(
        self,
        qname: Name | str,
        qtype: RRType,
        kernel,
        done,
        rrclass: RRClass = RRClass.IN,
    ) -> None:
        """Begin a resolution driven by the event kernel.

        ``done(result)`` fires when the resolution completes —
        synchronously for CHAOS self-queries and cache hits, otherwise
        from a kernel event at the virtual completion time.  Retries
        are real timer events (attempt N fires at ``send + N×timeout``)
        and responses are delivery events at ``send + rtt``, so one
        process interleaves thousands of in-flight resolutions and the
        clock advances through the kernel, never per query.

        CHAOS-class identification queries (``id.server.``,
        ``hostname.bind.``) are answered by the recursive itself and
        never forwarded — the §3.1 pitfall that makes CHAOS useless for
        catchment mapping through recursives.

        With telemetry enabled, every resolution opens a
        ``resolver.resolve`` root span whose children trace each
        exchange attempt down through the network and authoritative.
        """
        self._begin(qname, qtype, rrclass, kernel, done)

    def _begin(self, qname, qtype, rrclass, kernel, done) -> None:
        """Bill the query, open its root span, answer from the resolver
        itself or its caches if possible, else start the referral walk."""
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        telemetry = self.telemetry
        # Ledger denominator: one "query" per resolution entering the
        # resolver.
        costs = telemetry.costs
        if costs.enabled:
            costs.count("query")
        span = NULL_SPAN
        if telemetry.enabled:
            # Explicit parent: interleaved resolutions would corrupt the
            # tracer's active-span stack, so resolver spans never use it.
            span = telemetry.tracer.start_span(
                "resolver.resolve",
                at=kernel.now,
                parent=None,
                resolver=self.address,
                qname=qname.to_text(),
                qtype=getattr(qtype, "name", str(int(qtype))),
            )
        result = ResolutionResult(qname=qname, qtype=qtype)
        state = _EventResolution(self, kernel, qname, qtype, done, span, result)
        start = self._resolution_prologue(qname, qtype, rrclass, span, result)
        if start is None:
            state._complete()
            return
        state.current_zone, state.addresses = start
        state._begin_iteration()

    def _resolution_prologue(
        self,
        qname: Name,
        qtype: RRType,
        rrclass: RRClass,
        span,
        result: ResolutionResult,
    ) -> tuple[Name, list[str]] | None:
        """CHAOS self-answers and cache lookups, before any exchange.

        Returns ``None`` when ``result`` is already complete (no network
        exchange needed), else the starting ``(zone, addresses)`` for
        the referral walk.
        """
        now = self.network.clock.now
        costs = self.telemetry.costs
        costs_on = costs.enabled

        if rrclass == RRClass.CH:
            if qtype == RRType.TXT and qname in CHAOS_SELF_NAMES:
                result.rcode = Rcode.NOERROR
                result.answers = [
                    ResourceRecord(
                        qname, RRType.TXT, RRClass.CH, 0,
                        TXT.from_value(f"resolver-{self.address}"),
                    )
                ]
                result.served_by = f"resolver-{self.address}"
            else:
                result.rcode = Rcode.REFUSED
            return None

        if costs_on:
            costs.count("cache_lookup")
        cached = self.record_cache.lookup(qname, qtype)
        if cached is not None:
            result.rcode = Rcode.NOERROR
            result.answers = list(cached.records)
            result.from_cache = True
            span.set(cache="hit").event("cache_hit", at=now)
            return None
        if costs_on:
            costs.count("cache_lookup")
        negative = self.record_cache.lookup_negative(qname, qtype)
        if negative is not None:
            result.rcode = Rcode.NXDOMAIN if negative.nxdomain else Rcode.NOERROR
            result.from_cache = True
            span.set(cache="negative").event("cache_negative_hit", at=now)
            return None
        if span is not NULL_SPAN:
            span.set(cache="miss").event("cache_miss", at=now)

        start = self._deepest_known_zone(qname)
        if start is None:
            result.rcode = Rcode.SERVFAIL
        # The stub zone's own address list: the walk replaces its
        # addresses on a referral and never mutates them.
        return start

    def _classify_response(
        self, message: Message
    ) -> tuple[int, list[str] | None, Name | None]:
        """Classify one authoritative response for the referral walk.

        Returns ``(kind, referral_addresses, referral_cut)``.
        """
        if message.rcode == Rcode.NXDOMAIN:
            return _NXDOMAIN, None, None
        if message.rcode != Rcode.NOERROR:
            return _ERROR, None, None
        if not message.answers:
            referral = self._routable_addresses(message.additionals)
            cut = self._referral_cut(message)
            if referral:
                return _REFERRAL, referral, cut
            if cut is not None:
                # A referral without routable glue: not proof the name
                # lacks data (falling through to NODATA would poison the
                # negative cache), but also not necessarily a dead end —
                # the caller may resolve the NS target names themselves
                # (the glueless fetch the NXNSAttack amplifies).
                return _DEAD_REFERRAL, None, cut
        if message.answers:
            return _ANSWER, None, None
        return _NODATA, None, None

    def _emit_resolution_metrics(self, result: ResolutionResult, span) -> None:
        """Completion-side counters + root-span close, one per resolution."""
        telemetry = self.telemetry
        rcode = (
            getattr(result.rcode, "name", str(result.rcode))
            if result.rcode is not None
            else "NONE"
        )
        span.set(rcode=rcode, site=result.served_by)
        registry = telemetry.registry
        registry.counter(
            "resolver_queries_total", "resolutions attempted by recursives"
        ).inc()
        registry.counter(
            "resolver_resolutions_total",
            "completed resolutions, by outcome rcode",
            ("rcode",),
        ).labels(rcode=rcode).inc()
        cache_outcome = str(span.attributes.get("cache", "miss"))
        registry.counter(
            "resolver_cache_total",
            "record-cache outcomes per resolution",
            ("result",),
        ).labels(result=cache_outcome).inc()
        end = max(
            [s.end for s in span.trace if s.parent is span and s.end is not None]
            + [span.start]
        )
        telemetry.tracer.finish_span(span, at=end)

    # -- internals ---------------------------------------------------------------

    def _referral_cut(self, message: Message) -> Name | None:
        """The delegation point named by a referral's authority NS set."""
        for record in message.authorities:
            if record.rrtype == RRType.NS:
                return record.name
        return None

    def _referral_ns_targets(self, message: Message) -> list[Name]:
        """NS target names from a referral, for glueless-NS fetching."""
        targets: list[Name] = []
        seen: set[Name] = set()
        for record in message.authorities:
            if record.rrtype == RRType.NS:
                target = record.rdata.target
                if target not in seen:
                    seen.add(target)
                    targets.append(target)
        return targets

    def _fetch_budget_left(self, budget: ResolutionResult) -> bool:
        return self.max_fetch is None or budget.ns_fetches < self.max_fetch

    def _bill_ns_fetch(self, budget: ResolutionResult) -> None:
        budget.ns_fetches += 1
        self.ns_fetches += 1
        costs = self.telemetry.costs
        if costs.enabled:
            costs.count("ns_fetch")

    def _routable_addresses(self, records) -> list[str]:
        """A/AAAA addresses among ``records`` that we can route to."""
        addresses = []
        for record in records:
            if record.rrtype in (RRType.A, RRType.AAAA):
                address = record.rdata.address
                if self.network.knows(address):
                    addresses.append(address)
        return addresses

    def _cache_negative(
        self, message: Message, qname: Name, qtype: RRType, nxdomain: bool
    ) -> None:
        ttl = 0
        for record in message.authorities:
            if record.rrtype == RRType.SOA:
                minimum = getattr(record.rdata, "minimum", 0)
                ttl = min(record.ttl, minimum)
                break
        if ttl > 0:
            self.record_cache.put_negative(
                qname, qtype, nxdomain, ttl, self.network.clock.now
            )

    @staticmethod
    def _finalize(
        result: ResolutionResult,
        message: Message,
        address: str,
        served_by: str,
        rtt_ms: float,
    ) -> None:
        result.rcode = message.rcode
        # Every decode builds a fresh message, so its list is ours.
        result.answers = message.answers
        result.final_address = address
        result.served_by = served_by
        result.rtt_ms = rtt_ms


class _EventResolution:
    """One in-flight resolution on the event kernel.

    Owns the referral-walk state.  Each network send becomes either a
    delivery event (response arrives at ``send + rtt``) or a retry timer
    (attempt N+1 fires at ``send + timeout``); the state machine
    advances inside those events and calls ``done(result)`` when the
    walk terminates.
    """

    __slots__ = (
        "resolver", "kernel", "qname", "qtype", "done", "result", "span",
        "current_zone", "addresses", "iterations", "attempt", "question_tail",
        "msg_id", "address", "exch_span", "send_time", "exch_outcome",
        "depth", "budget", "pending", "fetch_targets", "fetch_cut",
    )

    def __init__(
        self, resolver, kernel, qname, qtype, done, span, result,
        depth=0, budget=None, pending=(),
    ):
        self.resolver = resolver
        self.kernel = kernel
        self.qname = qname
        self.qtype = qtype
        self.question_tail = _QUESTION_TAILS.get(
            qtype
        ) or QUESTION_TAIL_STRUCT.pack(qtype, RRClass.IN)
        self.done = done
        self.span = span
        self.result = result
        self.current_zone: Name | None = None
        self.addresses: list[str] | tuple = ()
        self.iterations = 0
        self.attempt = 0
        # Glueless-NS fetch state: ``budget`` is the top-level client
        # result (nested NS fetches all bill their amplification against
        # it, so ``max_fetch`` bounds the whole tree, not each level);
        # child fetch resolutions carry depth+1 and skip the
        # per-resolution metrics so the root span closes exactly once.
        self.depth = depth
        self.budget = budget if budget is not None else result
        self.pending: tuple[Name, ...] = pending
        self.fetch_targets: list[Name] | tuple = ()
        self.fetch_cut: Name | None = None

    # -- referral walk -----------------------------------------------------

    def _begin_iteration(self) -> None:
        if self.iterations >= MAX_REFERRALS:
            self.result.rcode = Rcode.SERVFAIL
            self._complete()
            return
        self.iterations += 1
        self.attempt = 0
        self._send()

    def _send(self) -> None:
        resolver = self.resolver
        kernel = self.kernel
        now = kernel.clock.now
        telemetry = resolver.telemetry
        costs = telemetry.costs
        self.address = resolver.selector.select(
            self.addresses, resolver.infra_cache, now
        )
        self.msg_id = resolver.rng.randrange(0x10000)
        wire = (
            HEADER_STRUCT.pack(self.msg_id, 0, 1, 0, 0, 0)
            + self.qname.to_wire()
            + self.question_tail
        )
        if costs.enabled:
            # One seeded draw (the message id) and one wire build per
            # attempt, whatever the exchange outcome.
            costs.count("rng_draw")
            costs.count("encode")
        resolver.queries_sent += 1
        self.send_time = now
        self.exch_span = NULL_SPAN
        parent = None
        if telemetry.enabled:
            self.exch_span = telemetry.tracer.start_span(
                "resolver.exchange",
                at=now,
                parent=self.span,
                ns=self.address,
                attempt=self.attempt + 1,
            )
            parent = self.exch_span
        try:
            resolver.network.transmit(
                kernel, resolver.location, resolver.address, self.address,
                wire, self._on_trip, parent=parent,
            )
        except DeliveryError:
            # Host gone (withdrawn mid-measurement): a timeout to us.  Not
            # wider: a lost exchange runs `_on_trip` inside `transmit`.
            self._attempt_failed("unreachable")

    def _attempt_failed(self, outcome: str) -> None:
        """Wait out the timeout window, then book the failure and retry."""
        self.exch_outcome = outcome
        deadline = self.send_time + self.resolver.timeout_ms / 1000.0
        # A garbled/spoofed response can arrive after the timeout would
        # have fired (RTT beyond the timeout); never schedule into the past.
        if deadline < self.kernel.now:
            deadline = self.kernel.now
        self.kernel.call_at(deadline, self._timeout_fired)

    def _timeout_fired(self) -> None:
        resolver = self.resolver
        outcome = self.exch_outcome
        self.result.attempts += 1
        if resolver.record_exchanges:
            self._record_exchange(ExchangeRecord(self.address, None, True, ""))
        resolver.selector.on_timeout(
            self.address, self.addresses, resolver.infra_cache, self.kernel.now
        )
        self._finish_exchange_span(outcome, None)
        self.attempt += 1
        if self.attempt > resolver.max_retries:
            self.result.rcode = Rcode.SERVFAIL
            self._complete()
            return
        self._send()

    def _on_trip(self, trip) -> None:
        resolver = self.resolver
        if trip.lost or trip.response is None:
            self._attempt_failed("timeout")
            return
        costs = resolver.telemetry.costs
        if costs.enabled:
            costs.count("decode")
        try:
            message = resolver._response_memo.decode(trip.response, self.qname)
        except Exception:
            self._attempt_failed("garbled")
            return
        if message.msg_id != self.msg_id:
            self._attempt_failed("id_mismatch")
            return
        now = self.kernel.clock.now
        self.result.attempts += 1
        if resolver.record_exchanges:
            self._record_exchange(
                ExchangeRecord(self.address, trip.rtt_ms, False, trip.served_by)
            )
        resolver.selector.on_response(
            self.address, trip.rtt_ms, self.addresses, resolver.infra_cache, now
        )
        if resolver.telemetry.enabled:
            self.exch_span.set(
                site=trip.served_by, rtt_ms=round(trip.rtt_ms, 3)
            )
            self._finish_exchange_span("ok", trip.rtt_ms)
        self._handle_response(message, trip)

    def _handle_response(self, message: Message, trip) -> None:
        resolver = self.resolver
        result = self.result
        kind, referral, cut = resolver._classify_response(message)
        address, served_by, rtt_ms = self.address, trip.served_by, trip.rtt_ms
        if kind == _NXDOMAIN:
            resolver._cache_negative(message, self.qname, self.qtype, nxdomain=True)
            resolver._finalize(result, message, address, served_by, rtt_ms)
            result.rcode = Rcode.NXDOMAIN
            self._complete()
            return
        if kind == _ERROR:
            result.rcode = message.rcode
            resolver._finalize(result, message, address, served_by, rtt_ms)
            self._complete()
            return
        if kind == _REFERRAL:
            self.addresses = referral
            if cut is not None:
                self.current_zone = cut
            self._begin_iteration()
            return
        if kind == _DEAD_REFERRAL:
            # Glueless (or unroutable-glue) delegation: chase the NS
            # target names with child resolutions, one at a time — the
            # fetch fan-out the NXNSAttack amplifies, bounded by
            # ``max_fetch`` / ``max_fetch_per_delegation`` /
            # MAX_FETCH_DEPTH.
            self._begin_ns_fetch(message, cut)
            return
        if kind == _ANSWER:
            resolver.record_cache.put(
                self.qname, self.qtype, list(message.answers),
                resolver.network.clock.now,
            )
            resolver._finalize(result, message, address, served_by, rtt_ms)
            self._complete()
            return
        # NODATA: name exists but not this type.
        resolver._cache_negative(message, self.qname, self.qtype, nxdomain=False)
        resolver._finalize(result, message, address, served_by, rtt_ms)
        self._complete()

    # -- glueless-NS fetching ----------------------------------------------

    def _begin_ns_fetch(self, message: Message, cut: Name | None) -> None:
        """Resolve glueless NS target names to routable addresses.

        Each target costs one sub-resolution ("NS fetch") billed against
        the top-level query's ``budget`` — the quantity the NXNSAttack
        inflates and ``max_fetch`` caps.  Scanning stops at the first
        target that yields routable addresses: the walk only needs one
        reachable server, so eager fan-out would overstate benign cost
        (while a bomb's never-resolving targets still consume the full
        fan-out).
        """
        resolver = self.resolver
        if self.depth >= MAX_FETCH_DEPTH:
            self.result.rcode = Rcode.SERVFAIL
            self._complete()
            return
        # Targets already being fetched up-stack would loop; the rest
        # are capped per delegation and popped in referral order.
        targets = [
            target for target in resolver._referral_ns_targets(message)
            if target not in self.pending
        ]
        if resolver.max_fetch_per_delegation is not None:
            targets = targets[:resolver.max_fetch_per_delegation]
        targets.reverse()
        self.fetch_targets = targets
        self.fetch_cut = cut
        self._next_fetch()

    def _next_fetch(self) -> None:
        resolver = self.resolver
        targets = self.fetch_targets
        while targets and resolver._fetch_budget_left(self.budget):
            target = targets.pop()
            resolver._bill_ns_fetch(self.budget)
            sub_result = ResolutionResult(qname=target, qtype=RRType.A)
            start = resolver._resolution_prologue(
                target, RRType.A, RRClass.IN, self.span, sub_result
            )
            if start is None:
                # Cache hit (or immediate failure): harvest inline and
                # keep scanning — no kernel round needed.
                if self._harvest(sub_result):
                    return
                continue
            child = _EventResolution(
                resolver, self.kernel, target, RRType.A, self._fetch_done,
                self.span, sub_result,
                depth=self.depth + 1, budget=self.budget,
                pending=self.pending + (target,),
            )
            child.current_zone, child.addresses = start
            child._begin_iteration()
            return
        self.result.rcode = Rcode.SERVFAIL
        self._complete()

    def _fetch_done(self, sub_result: ResolutionResult) -> None:
        if not self._harvest(sub_result):
            self._next_fetch()

    def _harvest(self, sub_result: ResolutionResult) -> bool:
        """Resume the walk at the fetched addresses, if there are any."""
        addresses = self.resolver._routable_addresses(sub_result.answers)
        if not addresses:
            return False
        self.addresses = addresses
        if self.fetch_cut is not None:
            self.current_zone = self.fetch_cut
        self._begin_iteration()
        return True

    # -- bookkeeping -------------------------------------------------------

    def _record_exchange(self, record: ExchangeRecord) -> None:
        costs = self.resolver.telemetry.costs
        if costs.enabled:
            costs.count("exchange_record")
        result = self.result
        if result.exchanges:
            result.exchanges.append(record)
        else:
            result.exchanges = [record]

    def _finish_exchange_span(self, outcome: str, rtt_ms: float | None) -> None:
        telemetry = self.resolver.telemetry
        if not telemetry.enabled:
            return
        span = self.exch_span
        span.set(outcome=outcome)
        if outcome == "ok":
            end = self.send_time + float(rtt_ms) / 1000.0
        else:
            end = self.send_time + self.resolver.timeout_ms / 1000.0
        telemetry.tracer.finish_span(span, at=end)
        telemetry.registry.counter(
            "resolver_exchanges_total",
            "exchange attempts against authoritatives, by outcome",
            ("outcome",),
        ).labels(outcome=outcome).inc()

    def _complete(self) -> None:
        resolver = self.resolver
        if resolver.telemetry.enabled and self.depth == 0:
            resolver._emit_resolution_metrics(self.result, self.span)
        self.done(self.result)
