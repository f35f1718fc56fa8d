"""DNS forwarders / middleboxes (the MI boxes of the paper's Figure 1).

Home routers and enterprise load balancers sit between stub clients and
recursive resolvers.  A :class:`DnsForwarder` relays queries to one or
more upstream recursives — which makes one probe's traffic appear at the
authoritatives from *several* recursive addresses, and can warm caches
the client never sees.  The paper checks (§3.1) that these effects do
not distort its analysis; :mod:`repro.analysis.validation` reproduces
that check.
"""

from __future__ import annotations

import enum
import random

from ..dns.name import Name
from ..seeding import default_rng
from ..dns.types import RRClass, RRType
from .resolver import RecursiveResolver, ResolutionResult
from .rrcache import RecordCache


class ForwardPolicy(enum.Enum):
    """How a forwarder spreads queries over its upstream recursives."""

    PRIMARY_FAILOVER = "primary"   # first upstream until it fails
    ROUND_ROBIN = "roundrobin"     # strict rotation
    RANDOM = "random"              # uniform per query


class DnsForwarder:
    """A middlebox relaying client queries to upstream recursives.

    The forwarder may keep its own small record cache (most CPE does),
    which serves repeat queries without consulting any upstream —
    exactly the cache-warming interference the paper defeats with
    unique labels.
    """

    def __init__(
        self,
        address: str,
        upstreams: list[RecursiveResolver],
        policy: ForwardPolicy = ForwardPolicy.PRIMARY_FAILOVER,
        cache_enabled: bool = True,
        rng: random.Random | None = None,
    ):
        if not upstreams:
            raise ValueError("a forwarder needs at least one upstream")
        self.address = address
        self.upstreams = list(upstreams)
        self.policy = policy
        self.cache = RecordCache(max_entries=1000) if cache_enabled else None
        # Keyed by the forwarder's own address: distinct middleboxes must
        # not rotate/choose upstreams in lockstep.
        self.rng = (
            rng if rng is not None
            else default_rng("resolvers.forwarder", address)
        )
        self._rr_index = self.rng.randrange(len(upstreams))
        self._primary_index = 0
        self.forwarded = 0
        self.served_from_cache = 0

    def _pick_upstream(self) -> tuple[int, RecursiveResolver]:
        if self.policy is ForwardPolicy.ROUND_ROBIN:
            index = self._rr_index % len(self.upstreams)
            self._rr_index += 1
        elif self.policy is ForwardPolicy.RANDOM:
            index = self.rng.randrange(len(self.upstreams))
        else:
            index = self._primary_index
        return index, self.upstreams[index]

    def resolve(
        self,
        qname: Name | str,
        qtype: RRType,
        rrclass: RRClass = RRClass.IN,
    ) -> ResolutionResult:
        """Answer from the forwarder cache or relay to an upstream."""
        if isinstance(qname, str):
            qname = Name.from_text(qname)
        clock = self.upstreams[0].network.clock
        now = clock.now
        if self.cache is not None and rrclass == RRClass.IN:
            entry = self.cache.get(qname, qtype, now)
            if entry is not None:
                self.served_from_cache += 1
                result = ResolutionResult(qname=qname, qtype=qtype)
                from ..dns.types import Rcode

                result.rcode = Rcode.NOERROR
                result.answers = list(entry.records)
                result.from_cache = True
                return result

        index, upstream = self._pick_upstream()
        result = upstream.resolve(qname, qtype, rrclass)
        self.forwarded += 1
        if (
            result.rcode is not None
            and not result.succeeded
            and self.policy is ForwardPolicy.PRIMARY_FAILOVER
            and len(self.upstreams) > 1
        ):
            from ..dns.types import Rcode

            if result.rcode == Rcode.SERVFAIL:
                # Fail over to the next upstream and retry once.
                self._primary_index = (index + 1) % len(self.upstreams)
                upstream = self.upstreams[self._primary_index]
                result = upstream.resolve(qname, qtype, rrclass)
                self.forwarded += 1

        if (
            self.cache is not None
            and rrclass == RRClass.IN
            and result.succeeded
            and not result.from_cache
        ):
            # The relay took virtual time: the TTL runs from arrival.
            self.cache.put(qname, qtype, list(result.answers), clock.now)
        return result
