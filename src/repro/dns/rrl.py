"""Response Rate Limiting (RRL), as in BIND/NSD.

Authoritatives are reflectors in DNS amplification attacks: an attacker
spoofs a victim's address and the server amplifies small queries into
large responses.  RRL bounds identical responses per client per second;
over-limit responses are either dropped or "slipped" — answered with a
truncated (TC) reply, which a *real* client will retry over TCP but a
spoofed victim will ignore.  This is part of the DDoS story in the
paper's §7 "Other Considerations".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable


class RrlAction(enum.Enum):
    """What to do with one response."""

    SEND = "send"
    SLIP = "slip"  # send a truncated, minimal response
    DROP = "drop"


@dataclass(slots=True)
class _Bucket:
    window_start: float
    count: int = 0
    slipped: int = 0


@dataclass
class ResponseRateLimiter:
    """Fixed-window rate limiter keyed by (client network, response key).

    Parameters
    ----------
    responses_per_second:
        Identical responses allowed per key per window.
    slip_ratio:
        Over-limit responses get a TC "slip" every N-th time; others are
        dropped.  ``slip_ratio=1`` slips everything, ``0`` drops all.
    ipv4_prefix_len:
        Clients are aggregated by network (attackers spread over a /24):
        two dotted-quad IPv4 clients share buckets when their first
        ``ipv4_prefix_len`` bits agree, for any length 0-32.  Other
        clients (IPv6, opaque names) are bucketed per address.

    Stale buckets go on virtual time: the first check at or past the next
    prune time drops every bucket two windows old and sets the next prune
    two windows on, so no bucket outlives four windows.  That moves no
    decision while ``now`` steps back by less than ``window_s`` (a pruned
    bucket restarts on its next touch anyway).  The kernel steps it back,
    as the handler runs at ``send + rtt/2`` and deliveries in ``send +
    rtt`` order: ≤ 0.29 s on the suite's hostile campaign, more under an
    uncapped latency spike.  ``tests/core/test_adversary_properties.py``
    (``test_a_limiters_clock_steps_back_by_less_than_a_window``) checks it.
    """

    responses_per_second: int = 5
    window_s: float = 1.0
    slip_ratio: int = 2
    ipv4_prefix_len: int = 24
    _buckets: dict[tuple[str, Hashable], _Bucket] = field(default_factory=dict)
    dropped: int = 0
    slipped: int = 0
    _next_prune: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ipv4_prefix_len <= 32:
            raise ValueError(
                f"ipv4_prefix_len must be 0-32, got {self.ipv4_prefix_len}"
            )

    def _client_network(self, client: str) -> Hashable:
        """The bucket owner of ``client`` (``address`` or ``address:port``)."""
        if client.count(":") == 1:
            client = client.partition(":")[0]
        prefix_len = self.ipv4_prefix_len
        if prefix_len == 32:
            return client  # every address its own network; no parsing
        # Here, not at module level: `socket` is heavy and only a
        # limiter that aggregates networks parses an address.
        import socket

        try:
            packed = socket.inet_pton(socket.AF_INET, client)
        except OSError:
            return client  # IPv6 or opaque: per-address
        return int.from_bytes(packed, "big") >> (32 - prefix_len)

    def check(self, client: str, response_key: Hashable, now: float) -> RrlAction:
        """Account one response; returns how to treat it."""
        if now >= self._next_prune:
            self.prune(now)
        key = (self._client_network(client), response_key)
        bucket = self._buckets.get(key)
        if bucket is None or now - bucket.window_start >= self.window_s:
            bucket = _Bucket(now)
            self._buckets[key] = bucket
        bucket.count += 1
        if bucket.count <= self.responses_per_second:
            return RrlAction.SEND
        over = bucket.count - self.responses_per_second
        if self.slip_ratio > 0 and over % self.slip_ratio == 0:
            bucket.slipped += 1
            self.slipped += 1
            return RrlAction.SLIP
        self.dropped += 1
        return RrlAction.DROP

    def prune(self, now: float) -> int:
        """Drop stale buckets; returns how many were removed."""
        horizon = 2 * self.window_s
        buckets = self._buckets
        self._buckets = {
            key: bucket
            for key, bucket in buckets.items()
            if now - bucket.window_start < horizon
        }
        self._next_prune = now + horizon
        return len(buckets) - len(self._buckets)
