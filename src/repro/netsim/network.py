"""The simulated Internet: hosts, anycast services, and round trips.

A host is (address, location, datagram handler).  The network computes
the RTT for each query/response exchange from the latency model, applies
loss, and — for anycast destinations — routes via the client's stable
catchment.  Handlers run instantaneously in virtual time, like the
paper's NSD instances whose processing time is negligible next to RTT.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass

from ..dns.message import ResponseDecodeMemo
from ..seeding import CounterStream
from ..telemetry import NULL_TELEMETRY
from .anycast import AnycastGroup, AnycastSite, DatagramHandler
from .clock import SimClock
from .geo import Location
from .latency import LatencyModel


def _path_diversity_multiplier(client_key: str, dst_address: str, sigma: float) -> float:
    """Stable lognormal multiplier for one (client, destination) pair."""
    if sigma <= 0.0:
        return 1.0
    digest = hashlib.sha256(f"{client_key}|{dst_address}|path".encode()).digest()
    uniform = (int.from_bytes(digest[:8], "big") + 0.5) / 2**64
    # Inverse-CDF of the standard normal via the probit approximation
    # (Acklam's rational fit is overkill; erfinv is exact and available).
    z = math.sqrt(2.0) * _erfinv(2.0 * uniform - 1.0)
    return math.exp(sigma * z)


def _erfinv(x: float) -> float:
    """Inverse error function (Winitzki's approximation, <2e-3 rel err)."""
    a = 0.147
    sign = 1.0 if x >= 0 else -1.0
    ln_term = math.log(1.0 - x * x)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return sign * math.sqrt(math.sqrt(first * first - ln_term / a) - first)


@dataclass
class UnicastHost:
    """A host reachable at one unicast address."""

    address: str
    location: Location
    handler: DatagramHandler


@dataclass(slots=True)
class RoundTrip:
    """Outcome of one query/response exchange."""

    response: bytes | None     # None when lost or unanswered
    rtt_ms: float | None       # None when lost
    lost: bool
    served_by: str             # site/host code that answered ("" when lost)


class DeliveryError(Exception):
    """The destination address is not registered in the simulation."""


class SimNetwork:
    """Registry of hosts plus the query/response transport.

    What an exchange needs from its (client address, destination) pair
    lives in typed columns indexed by a pair id, which a per-destination
    table maps the client address to: that table's slot is the only
    Python object a pair has.  The columns hold the pair's latency
    stream state (so every location that sends from one address — the
    instances of a public resolver service — draws from one stream, as
    the pair's n-th exchange must), the base RTT and the path-diversity
    multiplier, beside two lists of shared references: the route (one
    ``(handler, code, is_anycast)`` per destination site) and the
    sender location the row was placed for.  A row holds while the
    sender is at that location and ``latency.params`` is what the
    columns were placed under; :meth:`sample_path` re-places it
    otherwise.  Exchanges draw through one reusable
    :class:`~repro.seeding.CounterStream` loaded with the row's state.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
        telemetry=None,
    ):
        self.latency = latency if latency is not None else LatencyModel()
        self.clock = clock if clock is not None else SimClock()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: optional :class:`~repro.netsim.faults.FaultPlan`; when None the
        #: fault engine costs one attribute check per round trip.
        self.faults = None
        self._unicast: dict[str, UnicastHost] = {}
        self._anycast: dict[str, AnycastGroup] = {}
        #: destination -> {client address -> pair id}
        self._pair_ids: dict[str, dict[str, int]] = {}
        #: per-pair columns, indexed by pair id (see the class docstring)
        self._states = array("Q")
        self._base_rtt = array("d")
        self._multiplier = array("d")   # NaN until derived under the sigma
        self._routes: list[tuple | None] = []
        self._placed: list[Location | None] = []
        #: (destination, site code) -> the route every pair to it shares
        self._route_table: dict[tuple[str, str], tuple] = {}
        self._placed_params = self.latency.params
        self._stream = CounterStream(0)
        #: decode memo shared by every resolver on this network: its key
        #: is the wire minus id and first-label content and each entry
        #: is certified from the wire alone, so nothing in it belongs to
        #: one resolver.
        self.response_memo = ResponseDecodeMemo()

    # -- registration -----------------------------------------------------

    def register_host(
        self, address: str, location: Location, handler: DatagramHandler
    ) -> UnicastHost:
        if address in self._unicast or address in self._anycast:
            raise ValueError(f"address {address} already registered")
        host = UnicastHost(address, location, handler)
        self._unicast[address] = host
        return host

    def register_anycast(self, group: AnycastGroup) -> None:
        if group.address in self._unicast or group.address in self._anycast:
            raise ValueError(f"address {group.address} already registered")
        self._anycast[group.address] = group

    def unregister(self, address: str) -> None:
        self._unicast.pop(address, None)
        self._anycast.pop(address, None)
        # Routes to the address go with it; the pairs' streams stay.
        placed = self._placed
        for pair in self._pair_ids.get(address, {}).values():
            placed[pair] = None
        for key in [key for key in self._route_table if key[0] == address]:
            del self._route_table[key]

    def knows(self, address: str) -> bool:
        return address in self._unicast or address in self._anycast

    @property
    def addresses(self) -> list[str]:
        return list(self._unicast) + list(self._anycast)

    # -- routing ------------------------------------------------------------

    def route(
        self,
        client_location: Location,
        client_key: str,
        address: str,
        exclude_sites: frozenset | None = None,
    ) -> tuple[Location, DatagramHandler, str]:
        """Resolve a destination address to (site location, handler, code).

        ``exclude_sites`` holds anycast site codes currently withdrawn
        by a fault plan; a fully withdrawn group is unreachable.
        """
        host = self._unicast.get(address)
        if host is not None:
            return host.location, host.handler, host.location.code
        group = self._anycast.get(address)
        if group is not None:
            if exclude_sites and all(
                site.code in exclude_sites for site in group.sites
            ):
                raise DeliveryError(f"all sites of {address} withdrawn")
            site = group.catchment(
                client_location, client_key, self.latency, exclude=exclude_sites
            )
            return site.location, site.handler, site.code
        raise DeliveryError(f"no host at {address}")

    # -- transport ------------------------------------------------------------

    def sample_path(
        self,
        client_location: Location,
        client_address: str,
        dst_address: str,
    ) -> tuple:
        """Resolve route + draw the fate of one exchange at virtual now.

        Returns ``(lost, rtt_ms, handler, code, fault_drop, is_anycast,
        latency_fault)``.  ``fault_drop`` is ``"ns_outage"`` /
        ``"loss"`` / ``"brownout"`` when a fault caused the loss, else
        ``None``; on an outage no route is attempted and ``handler`` is
        ``None``.  Raises :class:`DeliveryError` for unroutable
        destinations (unknown address or fully withdrawn anycast group).

        This is the single place exchange outcomes are drawn: the
        blocking :meth:`round_trip` (direct probes) and the kernel send
        :meth:`transmit` (resolvers) both call it, so every draw comes
        from the same per-(client, destination) streams in the same
        order — the property the serial≡K-worker byte-identity
        contract rests on.  The draw
        count depends only on which faults are active (a pure function
        of ``(dst_address, now)``), never on outcomes.

        A pair's row (see the class docstring) keeps its route only
        while no site of the destination is withdrawn.
        """
        # The cost ledger is independent of `telemetry.enabled`: it
        # counts work whether or not spans are recorded.  Never draws RNG.
        costs = self.telemetry.costs
        costs_on = costs.enabled
        faults = self.faults
        active = withdrawn = None
        if faults is not None:
            active = faults.active(dst_address, self.clock.now)
            if costs_on:
                costs.count("fault_eval")
            if active is not None:
                if active.outage:
                    return (True, None, None, "", "ns_outage", False, False)
                withdrawn = active.withdrawn
        latency = self.latency
        if latency.params is not self._placed_params:
            self._unplace_all()
        try:
            pair = self._pair_ids[dst_address][client_address]
        except KeyError:
            pair = self._add_pair(client_address, dst_address)
        if withdrawn or self._placed[pair] is not client_location:
            self._place(pair, client_location, client_address, dst_address, withdrawn)
        stream = self._stream
        stream.state = self._states[pair]
        rtt_ms = latency.sample_exchange(stream, self._base_rtt[pair])
        self._states[pair] = stream.state
        lost = rtt_ms is None
        if costs_on:
            costs.count("rng_draw")
        handler, code, is_anycast = self._routes[pair]
        fault_drop = None
        if active is not None:
            # One draw per active probabilistic fault, outcomes
            # notwithstanding, so the pair stream advances identically
            # in every layout.
            if active.loss_rate > 0.0:
                if faults.pair_draw(client_address, dst_address) < active.loss_rate:
                    lost = True
                    fault_drop = "loss"
                if costs_on:
                    costs.count("rng_draw")
            if active.answer_rate < 1.0:
                if faults.pair_draw(client_address, dst_address) >= active.answer_rate:
                    lost = True
                    fault_drop = fault_drop or "brownout"
                if costs_on:
                    costs.count("rng_draw")
        if lost:
            return (True, None, handler, code, fault_drop, is_anycast, False)
        rtt_ms *= self._multiplier[pair]
        latency_fault = False
        if active is not None and (
            active.latency_multiplier != 1.0 or active.latency_extra_ms != 0.0
        ):
            rtt_ms = rtt_ms * active.latency_multiplier + active.latency_extra_ms
            latency_fault = True
        return (False, rtt_ms, handler, code, fault_drop, is_anycast, latency_fault)

    def _add_pair(self, client_address: str, dst_address: str) -> int:
        """Append a row for a new pair, its stream at its start."""
        pair = len(self._placed)
        self._pair_ids.setdefault(dst_address, {})[client_address] = pair
        self._states.append(
            self.latency.pair_stream(client_address, dst_address).state
        )
        self._base_rtt.append(0.0)
        self._multiplier.append(math.nan)
        self._routes.append(None)
        self._placed.append(None)
        return pair

    def _unplace_all(self) -> None:
        """New latency parameters: every row is re-placed at its next
        exchange, and re-derives its multiplier if the sigma moved."""
        params = self.latency.params
        rows = len(self._placed)
        self._placed = [None] * rows
        if params.path_diversity_sigma != self._placed_params.path_diversity_sigma:
            self._multiplier = array("d", [math.nan]) * rows
        self._placed_params = params

    def _place(
        self,
        pair: int,
        client_location: Location,
        client_address: str,
        dst_address: str,
        withdrawn: frozenset | None,
    ) -> None:
        """Route ``pair`` from ``client_location`` and derive its base
        RTT (and, once per sigma, its multiplier) under the current
        parameters.

        A route found around withdrawn sites serves one exchange only:
        the row is left unplaced, so the next exchange routes again.
        """
        latency = self.latency
        site_location, handler, code = self.route(
            client_location, client_address, dst_address, exclude_sites=withdrawn
        )
        route = self._route_table.get((dst_address, code))
        if route is None or route[0] is not handler:  # codes need not be unique
            route = self._route_table[dst_address, code] = (
                handler, code, dst_address in self._anycast
            )
        self._routes[pair] = route
        self._base_rtt[pair] = latency.base_rtt_ms(
            client_location.point, site_location.point
        )
        if math.isnan(self._multiplier[pair]):
            self._multiplier[pair] = _path_diversity_multiplier(
                client_address, dst_address, latency.params.path_diversity_sigma
            )
        self._placed[pair] = None if withdrawn else client_location

    def round_trip(
        self,
        client_location: Location,
        client_address: str,
        dst_address: str,
        payload: bytes,
    ) -> RoundTrip:
        """One blocking query/response exchange, answered at virtual now.

        The direct-probe path (catchment mapping, ad-hoc checks): the
        clock does not move and the caller gets the RTT as a number.
        Resolvers send through :meth:`transmit` instead.  Loss applies
        to the whole round trip; the caller decides whether to retry.

        When a fault plan is installed its state at the current virtual
        time degrades the exchange: an outage (or fully withdrawn
        anycast group) goes unanswered, extra loss and brownout drops
        draw from the plan's per-(client, destination) seeded streams,
        and latency spikes inflate the sampled RTT — all pure functions
        of (destination, virtual now) plus layout-invariant streams, so
        sharded runs reproduce the serial byte stream exactly.
        """
        telemetry = self.telemetry
        traced = telemetry.enabled
        now = end = self.clock.now
        if traced:
            tracer = telemetry.tracer
            span = tracer.start_span(
                "net.round_trip", at=now, client=client_address, dst=dst_address
            )
        try:
            fate = self.sample_path(client_location, client_address, dst_address)
            lost, rtt_ms, handler, code, _drop, _anycast, _latency = fate
            if traced:
                self._trace_fate(span, now, dst_address, fate)
            if lost:
                return RoundTrip(response=None, rtt_ms=None, lost=True, served_by="")
            end = now + round(rtt_ms, 3) / 1000.0
            response = handler(payload, client_address, now)
            if traced:
                span.set(answered=response is not None)
            return RoundTrip(
                response=response, rtt_ms=rtt_ms, lost=False, served_by=code
            )
        finally:
            if traced:
                tracer.finish_span(span, at=end)

    def _trace_fate(self, span, at: float, dst_address: str, fate: tuple) -> None:
        """Book one drawn exchange fate on its ``net.round_trip`` span:
        attributes, point events and the ``sim_*`` counters."""
        lost, rtt_ms, _handler, code, fault_drop, is_anycast, latency_fault = fate
        registry = self.telemetry.registry
        if fault_drop is not None:
            registry.counter(
                "sim_fault_drops_total",
                "round trips dropped by an injected fault",
                ("dst", "fault"),
            ).labels(dst=dst_address, fault=fault_drop).inc()
        if fault_drop == "ns_outage":
            span.set(lost=True, fault="ns_outage")
            span.event("fault_outage", at=at)
            return
        span.set(site=code)
        if is_anycast:
            span.event("anycast_catchment", at=at, site=code)
        if lost:
            span.set(lost=True)
            span.event("loss", at=at)
            if fault_drop is not None:
                span.set(fault=fault_drop)
            else:
                registry.counter(
                    "sim_lost_total",
                    "round trips lost in the simulated network",
                    ("dst",),
                ).labels(dst=dst_address).inc()
            return
        if latency_fault:
            span.set(fault="latency")
        span.set(lost=False, rtt_ms=round(rtt_ms, 3))
        span.event("rtt_draw", at=at, rtt_ms=round(rtt_ms, 3))
        registry.counter(
            "sim_round_trips_total",
            "query/response exchanges delivered, by destination and site",
            ("dst", "site"),
        ).labels(dst=dst_address, site=code).inc()
        registry.histogram(
            "sim_rtt_ms", "sampled round-trip time (ms)", ("site",)
        ).labels(site=code).observe(rtt_ms)

    def transmit(
        self,
        kernel,
        client_location: Location,
        client_address: str,
        dst_address: str,
        payload: bytes,
        on_result,
        parent=None,
    ) -> None:
        """Event-kernel send: draw the exchange fate now, deliver later.

        A delivered response becomes one kernel event at ``now + rtt``:
        the destination handler runs inside it, stamped with the query's
        mid-flight arrival time (``send + rtt/2``), and
        ``on_result(RoundTrip)`` fires with the response.  A lost
        exchange calls ``on_result`` with a lost RoundTrip
        *synchronously* — the caller owns the timeout policy and
        schedules its own retry timer, so a loss costs no kernel event
        here.  Raises :class:`DeliveryError` exactly like
        :meth:`round_trip` for unroutable destinations.

        Outcomes are drawn by :meth:`sample_path` at send time, so the
        per-pair streams advance in exactly the send order — which the
        kernel makes deterministic — and the serial≡K-worker byte
        identity carries over unchanged.

        With telemetry enabled the exchange is one ``net.round_trip``
        span (:meth:`_trace_fate` books its attributes, events and
        counters); ``parent`` anchors it explicitly, because interleaved
        resolutions cannot use the tracer's active-span stack.  The span
        finishes at delivery time, and the handler runs with the span
        activated so authoritative spans nest beneath it.
        """
        telemetry = self.telemetry
        traced = telemetry.enabled
        send_time = self.clock.now
        if traced:
            tracer = telemetry.tracer
            span = tracer.start_span(
                "net.round_trip", at=send_time, parent=parent,
                client=client_address, dst=dst_address,
            )
        try:
            fate = self.sample_path(client_location, client_address, dst_address)
        except Exception:
            if traced:
                tracer.finish_span(span, at=send_time)
            raise
        lost, rtt_ms, handler, code, _drop, _anycast, _latency = fate
        if traced:
            self._trace_fate(span, send_time, dst_address, fate)
        if lost:
            if traced:
                tracer.finish_span(span, at=send_time)
            on_result(RoundTrip(response=None, rtt_ms=None, lost=True, served_by=""))
            return
        kernel.call_at(
            kernel.clock.now + rtt_ms / 1000.0,
            self._deliver,
            (handler, payload, client_address, send_time, rtt_ms, code,
             on_result, span if traced else None),
        )

    def _deliver(self, exchange: tuple) -> None:
        """The delivery event :meth:`transmit` schedules: run the
        handler at the query's arrival time, close the exchange's span
        (``None`` untraced) and hand the trip to ``on_result``."""
        (handler, payload, client_address, send_time, rtt_ms, code,
         on_result, span) = exchange
        if span is not None:
            tracer = self.telemetry.tracer
            tracer.activate(span)
        try:
            response = handler(payload, client_address, send_time + rtt_ms / 2000.0)
        finally:
            if span is not None:
                tracer.deactivate(span)
        if span is not None:
            span.set(answered=response is not None)
            tracer.finish_span(span, at=send_time + rtt_ms / 1000.0)
        on_result(RoundTrip(response, rtt_ms, False, code))


__all__ = [
    "AnycastGroup",
    "AnycastSite",
    "DeliveryError",
    "RoundTrip",
    "SimNetwork",
    "UnicastHost",
]
