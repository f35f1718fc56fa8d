"""Authoritative name-server engine (the NSD role in the paper).

:class:`AuthoritativeServer` is transport-agnostic: it maps a request
:class:`Message` to a response :class:`Message`.  Transports (simulated
network, real UDP and TCP) feed it bytes or messages.  It keeps nothing
per query: with telemetry on, each query is an ``auth.query`` span, which
plays the role of the paper's server-side packet captures.  Its zones are
fixed when it is built and frozen from then on; over TCP it also serves
them whole, as AXFR zone transfers (RFC 5936).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..telemetry import NULL_TELEMETRY
from .errors import ZoneError
from .message import HEADER_STRUCT, QUESTION_TAIL_STRUCT, Message, Question
from .name import MAX_NAME_LENGTH, Name
from .rdata import TXT
from .records import _RR_HEADER_STRUCT, RRset
from .rrl import RrlAction
from .types import (
    FLAG_AA,
    FLAG_QR,
    FLAG_RD,
    MAX_UDP_PAYLOAD,
    Opcode,
    Rcode,
    RRClass,
    RRType,
)
from .zone import LookupStatus, Zone

CHAOS_ID_SERVER = Name.from_text("id.server.")
CHAOS_HOSTNAME_BIND = Name.from_text("hostname.bind.")

#: the AXFR question type; not an :class:`RRType`, so over UDP it is
#: looked up like any other unknown type
AXFR_TYPE_CODE = 252

#: stands for "no zone was looked up for this query" (None means "looked
#: up, none matched"); see :attr:`AuthoritativeServer._last_probe`
_UNPROBED = object()


@dataclass(frozen=True)
class _ResponseTemplate:
    """A cached, rendered response skeleton for one (suffix, qtype, …) key.

    Everything after the question name is qname-independent (proven at
    build time by rendering the same answer for a canary label of a
    *different length* and comparing tails: any compression pointer into
    the variable part of the question would shift and fail the check).
    Rendering a hit is: msg-id + fixed header tail + the query's own
    qname wire + fixed tail.
    """

    zone: Zone
    header_tail: bytes  # response bytes 2..12 (flags + section counts)
    tail: bytes  # everything after the question name: qtype, qclass, RRs
    rcode: Rcode


@dataclass(slots=True)
class ServerStats:
    """Aggregate counters, mirroring an NSD statistics dump."""

    queries: int = 0
    responses: int = 0
    nxdomain: int = 0
    refused: int = 0
    formerr: int = 0
    notimp: int = 0
    chaos: int = 0


class AuthoritativeServer:
    """Serves one or more zones authoritatively.

    Parameters
    ----------
    server_id:
        Identifier returned for CHAOS ``id.server.`` queries; the paper's
        experiment identifies sites this way *and* via per-site TXT data.
    zones:
        The zones it serves, fixed for its lifetime; each is frozen
        (:meth:`Zone.freeze`), so whatever the server keeps from one
        answer holds for every later one.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when enabled the
        engine exports per-server query/response counters and joins
        query-lifecycle traces with ``auth.query`` spans.
    """

    def __init__(
        self,
        server_id: str,
        zones: Iterable[Zone] = (),
        rate_limiter=None,
        telemetry=None,
    ):
        self.server_id = server_id
        #: folded origin labels -> zone, so the longest-suffix probe
        #: hashes slices of the qname's labels, not ``Name`` objects
        self._zones: dict[tuple[bytes, ...], Zone] = {}
        for zone in zones:
            zone.freeze()
            self._zones[zone.origin._folded] = zone
        #: label count of the deepest origin
        self._deepest_origin = max(map(len, self._zones), default=0)
        self.stats = ServerStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: optional :class:`repro.dns.rrl.ResponseRateLimiter`
        self.rate_limiter = rate_limiter
        #: response-template cache; see :class:`_ResponseTemplate`
        self._templates: dict[tuple, _ResponseTemplate] = {}
        #: template keys whose canary comparison failed; spares
        #: re-proving them on every miss
        self._uncachable: set[tuple] = set()
        #: a templated query's bytes with the id and first label cut out
        #: -> (template, suffix, suffix wire length, longest qname wire
        #: that fits); see :meth:`_answer_alias`
        self._aliases: dict[bytes, tuple[_ResponseTemplate, Name, int, int]] = {}
        #: alias bytes whose template key had no template when parsed:
        #: their queries skip the parse (cleared when a template is stored)
        self._untemplated: set[bytes] = set()
        #: (query, zone found for it) from the last :meth:`_answer` that
        #: probed the zone table; ``zone`` is None when no zone matched
        self._last_probe: tuple[Message | None, Zone | None] = (None, None)

    #: template-cache entries before a wholesale reset; the working set
    #: is bounded by zones x qtypes in practice, this only guards abuse.
    _TEMPLATE_MAX = 512

    # -- zones -------------------------------------------------------------

    def find_zone(self, qname: Name) -> Zone | None:
        """Longest-suffix zone match for a query name.

        Walks from the qname toward the root, one dict probe per level,
        instead of scanning every loaded zone — starting at the deepest
        level an origin has, since no longer suffix can match.
        """
        zones = self._zones
        if zones:
            folded = qname._folded
            deepest = len(folded) - self._deepest_origin
            for start in range(deepest if deepest > 0 else 0, len(folded) + 1):
                zone = zones.get(folded[start:])
                if zone is not None:
                    return zone
        return None

    # -- query processing ----------------------------------------------------

    #: the largest EDNS payload this server will honor (NSD's default)
    max_edns_payload = 4096

    def handle_wire(
        self, wire: bytes, client: str = "", now: float = 0.0
    ) -> bytes | None:
        """Decode, process, and encode; ``None`` for undecodable garbage.

        Responses are capped at 512 bytes for plain-DNS clients and at
        min(advertised, 4096) for EDNS clients; larger answers are
        truncated with the TC bit set (the client then retries over TCP).

        When no rate limiter is set, a template fast path may answer
        without decoding the query into a :class:`Message` at all — from
        an alias of the query's bytes, else from a parsed question; its
        output, and what it books in stats and telemetry, are
        identical to the slow path's (see :class:`_ResponseTemplate`).  A
        miss whose alias bytes are known to map to no template is
        decoded once, not parsed.

        Invariant: a limiter changes which responses are sent, never how
        one is computed — under RRL every call still decodes, looks up
        and encodes in full.
        """
        costs = self.telemetry.costs
        costs_on = costs.enabled
        limiter = self.rate_limiter
        templating = False
        if limiter is None:
            alias = None
            if len(wire) >= 17 and 0 < wire[12] < 64:
                # header flags and counts, then all after the first label
                alias = wire[2:12] + wire[13 + wire[12]:]
                rendered = self._answer_alias(alias, wire, client, now)
                if rendered is not None:
                    return rendered
            if alias in self._untemplated:
                templating = True
            elif (fast := self._parse_fast_query(wire)) is not None:
                rendered = self._render_from_template(fast, wire, alias, client, now)
                if rendered is not None:
                    return rendered
                templating = True
            if templating and costs_on:
                costs.count("template_miss")
        try:
            query = Message.from_wire(wire)
        except Exception:
            self.stats.formerr += 1
            return None
        if costs_on:
            costs.count("decode")
        response = self.handle_query(query, client, now)
        probed, zone = self._last_probe
        if probed is not query:  # answered without a zone probe
            zone = _UNPROBED
        if limiter is not None and response.questions:
            question = response.questions[0]
            rcode = response.rcode
            if rcode == Rcode.NOERROR:
                # The folded wire form (length octets are below "A", so
                # lower() only touches label bytes): case-insensitive
                # like the names themselves, one small object per bucket.
                scope = question.name.to_wire().lower()
                qtype = question.rrtype
            else:
                # BIND-style: error responses bucket per *zone*, not per
                # qname — otherwise a random-subdomain water torture gets
                # a fresh bucket per query and RRL never engages.  The
                # zone is the one the answer came from, and its folded
                # origin labels are one object shared by every bucket.
                if zone is _UNPROBED:
                    zone = self.find_zone(question.name)
                scope = (
                    zone.origin._folded if zone is not None
                    else question.name.to_wire().lower()
                )
                qtype = -1
            if costs_on:
                costs.count("rrl_check")
            action = limiter.check(client, (scope, qtype, rcode), now)
            if action is RrlAction.DROP:
                if costs_on:
                    costs.count("rrl_drop")
                return None
            if action is RrlAction.SLIP:
                if costs_on:
                    costs.count("rrl_slip")
                    costs.count("encode")
                slip = query.make_response()
                slip.truncated = True
                return slip.to_wire(MAX_UDP_PAYLOAD)
        wire_out = response.to_wire(self._use_edns(query, response))
        if costs_on:
            costs.count("encode")
        if templating:
            self._maybe_build_template(query, wire_out, zone)
        return wire_out

    def handle_wire_tcp(
        self, wire: bytes, client: str = "", now: float = 0.0
    ) -> bytes | None:
        """TCP variant of :meth:`handle_wire`: no size cap, no TC bit.

        TCP also carries zone transfers (:meth:`_answer_tcp`), booked in
        stats and telemetry like any other answer.
        """
        try:
            query = Message.from_wire(wire)
        except Exception:
            self.stats.formerr += 1
            return None
        response = self._serve(query, client, now, self._answer_tcp)
        self._use_edns(query, response)
        return response.to_wire()

    def _use_edns(self, query: Message, response: Message) -> int:
        """Give ``response`` this server's EDNS answer to ``query``.

        One helper for every transport: an EDNS query gets an OPT
        advertising :attr:`max_edns_payload` and, when it asked, the
        NSID (RFC 5001) that identifies this instance — the modern
        alternative to CHAOS ``id.server`` for catchment mapping.
        Returns the size a UDP response must fit: 512 bytes for plain
        DNS, min(advertised, :attr:`max_edns_payload`) for EDNS.
        """
        if query.edns_payload is None:
            return MAX_UDP_PAYLOAD
        response.use_edns(self.max_edns_payload)
        if query.nsid is not None:
            response.edns_options.append(
                (Message.EDNS_NSID, self.server_id.encode())
            )
        return min(query.edns_payload, self.max_edns_payload)

    def handle_query(
        self, query: Message, client: str = "", now: float = 0.0
    ) -> Message:
        """Produce the authoritative response for one query message.

        With telemetry enabled this opens an ``auth.query`` span — when
        the query arrived through an instrumented :class:`SimNetwork`
        the span nests under that exchange's ``net.round_trip``.
        """
        return self._serve(query, client, now, self._answer)

    def _serve(self, query: Message, client: str, now: float, answer) -> Message:
        """:meth:`handle_query` with ``answer`` building the response."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._handle_query(query, answer)
        qname = query.questions[0].name.to_text() if query.questions else ""
        span = self._start_query_span(qname, client, now)
        try:
            response = self._handle_query(query, answer)
            span.set(rcode=getattr(response.rcode, "name", str(response.rcode)))
            return response
        finally:
            telemetry.tracer.finish_span(span, at=now)

    def _start_query_span(self, qname: str, client: str, now: float):
        """The ``auth.query`` span, as both answer paths open it."""
        return self.telemetry.tracer.start_span(
            "auth.query", at=now, server=self.server_id, client=client, qname=qname
        )

    def _handle_query(self, query: Message, answer) -> Message:
        stats = self.stats
        stats.queries += 1
        response = answer(query)
        # Counter bookkeeping mirrors the branch _answer took; keeping it
        # out of _answer lets the template builder render canary
        # responses without perturbing the stats.
        if query.opcode != Opcode.QUERY:
            stats.notimp += 1
        elif len(query.questions) != 1:
            stats.formerr += 1
        elif query.questions[0].rrclass == RRClass.CH:
            stats.chaos += 1
        elif response.rcode == Rcode.REFUSED:
            stats.refused += 1
        elif response.rcode == Rcode.NXDOMAIN:
            stats.nxdomain += 1
        stats.responses += 1
        if self.telemetry.enabled:
            self._count_response(response.rcode)
        return response

    def _answer(self, query: Message) -> Message:
        """Build the response message for one query.

        Touches no counter; the one thing it leaves behind is
        :attr:`_last_probe`, the zone it found for ``query``, so that
        :meth:`handle_wire` buckets an error response without probing
        the zone table a second time.
        """
        response = query.make_response()

        if query.opcode != Opcode.QUERY:
            response.rcode = Rcode.NOTIMP
            return response
        if len(query.questions) != 1:
            response.rcode = Rcode.FORMERR
            return response

        question = query.questions[0]
        if question.rrclass != RRClass.IN:
            if question.rrclass == RRClass.CH:
                self._answer_chaos(question, response)
            else:
                response.rcode = Rcode.REFUSED
            return response

        zone = self.find_zone(question.name)
        self._last_probe = (query, zone)
        if zone is None:
            response.rcode = Rcode.REFUSED
            return response

        result = zone.lookup(question.name, question.rrtype)
        status = result.status
        if status is not LookupStatus.DELEGATION:
            response.flags |= FLAG_AA
            if status is LookupStatus.NXDOMAIN:
                response.rcode = Rcode.NXDOMAIN
        # The zone's own record tuples: built once per RRset, each
        # record carrying its packed wire for the encoder.
        records = zone.records
        for rrset in result.answers:
            response.answers += records(rrset)
        for rrset in result.authority:
            response.authorities += records(rrset)
        for rrset in result.additional:
            response.additionals += records(rrset)
        return response

    def _answer_tcp(self, query: Message) -> Message:
        """:meth:`_answer`, except that an IN-class AXFR question is a
        zone transfer: the whole zone when it names a zone's apex,
        REFUSED anywhere else."""
        questions = query.questions
        if (
            query.opcode == Opcode.QUERY
            and len(questions) == 1
            and questions[0].rrtype == AXFR_TYPE_CODE
            and questions[0].rrclass == RRClass.IN
        ):
            origin = questions[0].name
            zone = self.find_zone(origin)
            if zone is not None and zone.origin == origin:
                return build_axfr_response(query, zone)
            response = query.make_response()
            response.rcode = Rcode.REFUSED
            return response
        return self._answer(query)

    def _answer_chaos(self, question: Question, response: Message) -> None:
        """CHAOS TXT id.server. / hostname.bind. identify this instance."""
        if question.rrtype == RRType.TXT and question.name in (
            CHAOS_ID_SERVER,
            CHAOS_HOSTNAME_BIND,
        ):
            rrset = RRset(question.name, RRType.TXT, RRClass.CH, 0)
            rrset.add(TXT.from_value(self.server_id))
            response.answers += rrset.records()
            response.authoritative = True
        else:
            response.rcode = Rcode.REFUSED

    def _count_response(self, rcode) -> None:
        """Per-server registry counters for one answered query."""
        registry = self.telemetry.registry
        registry.counter(
            "authoritative_queries_total",
            "queries received, by authoritative instance",
            ("server",),
        ).labels(server=self.server_id).inc()
        registry.counter(
            "authoritative_responses_total",
            "responses sent, by authoritative instance and rcode",
            ("server", "rcode"),
        ).labels(
            server=self.server_id, rcode=getattr(rcode, "name", str(rcode))
        ).inc()

    # -- response-template fast path ---------------------------------------

    def _answer_alias(
        self, key: bytes, wire: bytes, client: str, now: float
    ) -> bytes | None:
        """Answer from an alias of the query's own bytes, or ``None``.

        :meth:`_render_from_template` files every query it answers under
        ``key``, the bytes left once the id and the first label are cut
        out: header flags and counts, then suffix, qtype, qclass and OPT.
        Equal bytes there parse the same way around any first label of
        1–63 bytes, so the parsed path would pick the same template;
        what does depend on that label — whether the name exists or is a
        zone origin, and whether the answer fits — is checked here as
        it is there.  No :class:`Name` is built unless telemetry is on.
        """
        alias = self._aliases.get(key)
        if alias is None:
            return None
        label_end = 13 + wire[12]
        entry, suffix, suffix_len, room = alias
        qname_end = label_end + suffix_len
        if qname_end - 12 > room:
            return None
        folded = (wire[13:label_end].lower(),) + suffix._folded
        if folded in entry.zone._owners or folded in self._zones:
            return None
        return self._render_hit(entry, wire, wire[12:qname_end], client, now)

    def _parse_fast_query(
        self, wire: bytes
    ) -> tuple[bool, Name, int, int, int | None, bool, Name | None] | None:
        """Parse a plain single-question QUERY without building a Message.

        Returns ``(rd, qname, qtype, qclass, edns_payload, wants_nsid,
        suffix)``, or ``None`` for anything the template path does not
        cover (the caller then falls back to the full decoder, so a
        ``None`` here is never a behavior change, only a slower answer).
        ``suffix`` is the qname minus its first label (``None`` for
        single-label names).  Runs only when no alias matched.
        """
        if len(wire) < 17:  # header + shortest possible question
            return None
        try:
            _msg_id, flags, qdcount, ancount, nscount, arcount = (
                HEADER_STRUCT.unpack_from(wire)
            )
            if qdcount != 1 or ancount or nscount or arcount > 1:
                return None
            if flags & FLAG_QR or (flags >> 11) & 0xF:  # responses, non-QUERY
                return None
            qname, cursor = Name.from_wire(wire, HEADER_STRUCT.size)
            suffix = qname.parent() if len(qname) >= 2 else None
            if cursor + 4 > len(wire):
                return None
            qtype, qclass = QUESTION_TAIL_STRUCT.unpack_from(wire, cursor)
            cursor += 4
            edns_payload = None
            wants_nsid = False
            if arcount:
                # The one additional must be a root-owned OPT; anything
                # else (TSIG, a compressed owner, ...) goes slow-path.
                if wire[cursor] != 0 or cursor + 11 > len(wire):
                    return None
                type_code, payload, _ttl, rdlength = (
                    _RR_HEADER_STRUCT.unpack_from(wire, cursor + 1)
                )
                if type_code != int(RRType.OPT):
                    return None
                cursor += 11
                if cursor + rdlength > len(wire):
                    return None
                position = 0
                while position + 4 <= rdlength:
                    code, length = QUESTION_TAIL_STRUCT.unpack_from(
                        wire, cursor + position
                    )
                    position += 4 + length
                    if code == Message.EDNS_NSID:
                        wants_nsid = True
                if position != rdlength:  # malformed option list
                    return None
                cursor += rdlength
                edns_payload = payload
            if cursor != len(wire):  # trailing bytes: let the decoder judge
                return None
        except Exception:
            return None
        return (
            bool(flags & FLAG_RD), qname, qtype, qclass,
            edns_payload, wants_nsid, suffix,
        )

    def _render_from_template(
        self, fast, wire: bytes, alias: bytes | None, client: str, now: float
    ) -> bytes | None:
        """Answer a parsed query from a cached template, or ``None`` on
        any miss/doubt; a spelled-out question also becomes an alias,
        and one whose key has no template joins :attr:`_untemplated`."""
        rd, qname, qtype, qclass, edns_payload, wants_nsid, suffix = fast
        # Templates are IN-class, under a suffix; the suffix Name hashes
        # on its cached folded form, so the key stays case-insensitive.
        key = (suffix, qtype, rd, edns_payload is not None, wants_nsid)
        entry = self._templates.get(key) if qclass == RRClass.IN else None
        if entry is None:
            if alias is not None:
                untemplated = self._untemplated
                if len(untemplated) >= self._TEMPLATE_MAX:
                    untemplated.clear()
                untemplated.add(alias)
            return None
        zone = entry.zone
        # The template is only valid for names whose lookup outcome is a
        # function of the suffix alone: the qname must not exist in the
        # zone and must not be a zone origin itself.
        if qname in zone._names or qname._folded in self._zones:
            return None
        qname_wire = qname.to_wire()
        max_size = (
            min(edns_payload, self.max_edns_payload)
            if edns_payload is not None
            else MAX_UDP_PAYLOAD
        )
        room = min(MAX_NAME_LENGTH, max_size - 12 - len(entry.tail))
        if len(qname_wire) > room:
            return None  # would truncate: the slow path handles TC
        if wire.startswith(qname_wire, 12):  # not compressed: alias is set
            aliases = self._aliases
            if len(aliases) >= self._TEMPLATE_MAX:
                aliases.clear()
            aliases[alias] = (entry, suffix, len(qname_wire) - 1 - wire[12], room)
        return self._render_hit(entry, wire, qname_wire, client, now)

    def _render_hit(
        self, entry: _ResponseTemplate, wire: bytes, qname_wire: bytes,
        client: str, now: float,
    ) -> bytes:
        """Splice ``qname_wire`` into ``entry`` under the query's id, and
        book what :meth:`_handle_query` books for the same answer."""
        stats = self.stats
        stats.queries += 1
        if entry.rcode == Rcode.NXDOMAIN:
            stats.nxdomain += 1
        stats.responses += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            qname = Name.from_wire(qname_wire, 0)[0]
            span = self._start_query_span(qname.to_text(), client, now)
            span.set(rcode=entry.rcode.name)
            telemetry.tracer.finish_span(span, at=now)
            self._count_response(entry.rcode)
        costs = telemetry.costs
        if costs.enabled:
            costs.count("template_hit")
        return b"".join((wire[:2], entry.header_tail, qname_wire, entry.tail))

    def _maybe_build_template(self, query: Message, wire_out: bytes, zone) -> None:
        """Cache ``wire_out`` as a template when provably qname-independent.

        ``query`` is decoded, and keyed as :meth:`_render_from_template`
        keys its parse; ``zone`` is the zone the answer came from
        (:data:`_UNPROBED` when the answer did not look one up).  The proof
        is empirical: re-answer the same question for a canary label of a
        *different length* (also absent from the zone).  If everything
        outside the question name matches byte-for-byte, no compression
        pointer or length field in the tail depends on the qname, so the
        tail can be replayed for any other absent name under the same suffix.
        """
        if wire_out[2] & 0x02:  # TC set: truncated responses vary by size
            return
        question = query.questions[0]
        qname, rrtype = question.name, question.rrtype
        if (
            question.rrclass != RRClass.IN
            or len(qname) < 2
            or qname._folded in self._zones
        ):
            return
        if zone is _UNPROBED:
            zone = self.find_zone(qname)
        if zone is None or qname in zone._names:
            return
        suffix = qname.parent()
        edns_payload, wants_nsid = query.edns_payload, query.nsid is not None
        rd = query.recursion_desired
        key = (suffix, rrtype, rd, edns_payload is not None, wants_nsid)
        if key in self._uncachable:
            return
        first = qname.labels[0]
        canary_label = b"\x01" if len(first) != 1 else b"\x01\x02"
        try:
            canary = suffix.child(canary_label)
        except Exception:
            return  # qname at the length limit; not worth caching
        if canary in zone._names or canary._folded in self._zones:
            return
        probe = Message(msg_id=0)
        probe.questions.append(Question(canary, rrtype, RRClass.IN))
        probe.recursion_desired = rd
        probe.edns_payload = edns_payload
        if wants_nsid:
            probe.request_nsid()
        response = self._answer(probe)
        self._use_edns(probe, response)
        canary_wire = response.to_wire()
        name_end = 12 + qname.wire_length()
        canary_end = 12 + canary.wire_length()
        if (
            wire_out[2:12] != canary_wire[2:12]
            or wire_out[name_end:] != canary_wire[canary_end:]
        ):
            # Tail depends on the qname: not cachable, for any qname
            # under this key.
            if len(self._uncachable) >= self._TEMPLATE_MAX:
                self._uncachable.clear()
            self._uncachable.add(key)
            return
        if len(self._templates) >= self._TEMPLATE_MAX:
            self._templates.clear()
        self._untemplated.clear()
        self._templates[key] = _ResponseTemplate(
            zone=zone,
            header_tail=wire_out[2:12],
            tail=wire_out[name_end:],
            rcode=Rcode(wire_out[3] & 0x0F),
        )


def build_axfr_response(query: Message, zone: Zone) -> Message:
    """The AXFR answer (RFC 5936): the SOA, every other record, the SOA
    again, in one message."""
    soa = zone.soa
    if soa is None:
        raise ZoneError(f"zone {zone.origin} has no SOA; cannot transfer")
    response = query.make_response()
    response.authoritative = True
    soa_records = soa.records()
    response.answers.extend(soa_records)
    for rrset in zone.rrsets():
        if rrset.rrtype != RRType.SOA:
            response.answers.extend(rrset.records())
    response.answers.extend(soa_records)
    return response
