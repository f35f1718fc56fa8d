"""Latency model: geographic distance → round-trip time.

The paper's analysis is driven by the *relative* RTTs between vantage
points and datacenters (e.g. a VP in Europe sees FRA at ~40 ms and SYD at
~300 ms).  We model RTT as

    rtt = 2 * (distance * inflation) / fiber_speed + access + jitter

with fiber propagation at ~2/3 c, a path-inflation factor for the
indirectness of real routes, a fixed last-mile access delay, and
multiplicative lognormal jitter.  Defaults are calibrated so the medians
in the paper's Figure 3/Table 2 land in the right bands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..seeding import CounterStream, default_rng, derive, derive_rng
from .geo import GeoPoint, great_circle_km

# Speed of light in fiber, km per second (~0.67 c).
FIBER_KM_PER_SECOND = 200_000.0


@dataclass(frozen=True)
class LatencyParameters:
    """Tunable knobs of the latency model."""

    path_inflation: float = 2.0     # real paths are longer than geodesics
    access_delay_ms: float = 20.0   # last-mile + processing, both ends total
    jitter_sigma: float = 0.08      # lognormal sigma on the multiplier
    loss_rate: float = 0.005        # per-round-trip loss probability
    min_rtt_ms: float = 1.0
    #: stable per-(client, destination) routing diversity: the same two
    #: endpoints see different paths depending on their providers.  A
    #: lognormal multiplier with this sigma, fixed per pair (see
    #: SimNetwork), creates the >=50 ms RTT gaps between geographically
    #: equidistant sites that the paper's Figure 4 gate relies on.
    path_diversity_sigma: float = 0.22


class LatencyModel:
    """Computes base and sampled RTTs between two points.

    The *base* RTT for a pair is deterministic; individual samples add
    jitter and may be lost.  A seeded RNG keeps runs reproducible.

    Two sampling surfaces coexist:

    * :meth:`is_lost` draws from one shared stream (``rng``) — for
      callers that own the whole draw order (the passive generator).
    * :meth:`sample_exchange` draws from a *per-(client, destination)*
      counter stream, :meth:`pair_stream`, derived from ``seed``: a
      pair's n-th exchange is a function of (seed, client, destination,
      n), never of how other pairs' draws interleave — the property
      that lets the sharded experiment engine reproduce a serial run
      bit-for-bit.  The caller keeps the stream (the network keeps one
      per pair it has seen).
    """

    def __init__(
        self,
        params: LatencyParameters | None = None,
        rng: random.Random | None = None,
        seed: int | None = None,
    ):
        self.params = params if params is not None else LatencyParameters()
        if rng is None:
            rng = (
                derive_rng(seed, "latency.shared")
                if seed is not None
                else default_rng("netsim.latency")
            )
        self.rng = rng
        #: root of the per-pair streams; falls back to a value drawn from
        #: the shared rng so legacy ``rng=``-only construction stays
        #: deterministic end to end.
        self.seed = seed if seed is not None else self.rng.getrandbits(63)
        # base_rtt_ms is pure per (points, params): a campaign hits the
        # same few VP–site pairs millions of times, so memoize — and
        # drop the memo if someone swaps in new parameters.
        self._base_cache: dict[tuple[GeoPoint, GeoPoint], float] = {}
        self._base_cache_params = self.params

    def base_rtt_ms(self, a: GeoPoint, b: GeoPoint) -> float:
        """Deterministic RTT for the pair, without jitter."""
        if self.params is not self._base_cache_params:
            self._base_cache.clear()
            self._base_cache_params = self.params
        cached = self._base_cache.get((a, b))
        if cached is not None:
            return cached
        distance = great_circle_km(a, b) * self.params.path_inflation
        propagation_ms = 2.0 * distance / FIBER_KM_PER_SECOND * 1000.0
        rtt = max(
            self.params.min_rtt_ms, propagation_ms + self.params.access_delay_ms
        )
        self._base_cache[(a, b)] = rtt
        return rtt

    def is_lost(self) -> bool:
        """Whether one query/response round trip is lost."""
        return self.rng.random() < self.params.loss_rate

    # -- per-pair sampling (layout-invariant) -------------------------------

    def pair_stream(self, client_key: str, dst_key: str) -> CounterStream:
        """The (client, destination) pair's private stream, at its start."""
        return CounterStream(derive(self.seed, "latency.pair", client_key, dst_key))

    def sample_exchange(
        self, stream: CounterStream, base_rtt_ms: float
    ) -> float | None:
        """One exchange drawn from a pair's ``stream``: ``None`` when
        lost, else ``base_rtt_ms`` with lognormal jitter.

        The n-th exchange of a pair sees the same loss and jitter draws
        no matter what any other pair is doing — serial and sharded runs
        agree exchange for exchange.  Both are drawn every time, lost or
        not.
        """
        params = self.params
        lost = stream.random() < params.loss_rate
        jitter = stream.gauss(0.0, params.jitter_sigma)
        if lost:
            return None
        return base_rtt_ms * math.exp(jitter)
