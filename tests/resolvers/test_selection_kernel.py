"""The one-pass selection kernel against the per-address algorithm it replaced.

``Reference*`` below are the selectors and the infrastructure cache as
they stood before selection became a single pass over
``InfrastructureCache.entries`` — one ``srtt → entry → get → expired``
chain per address, BIND decaying through ``cache.decay``.  They are kept
here, not in ``src/``, as the oracle: the shipped selectors must make
the same choices, leave the RNG in the same state and leave every cache
entry with the same bits, whatever the stream of calls and however time
lands relative to ``expires_at``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.resolvers.infracache import InfrastructureCache
from repro.resolvers.population import INFRA_TTL_S, SELECTOR_CLASSES

CACHE_READING = ("bind", "unbound", "powerdns", "windows")


def zone_addresses(servers: int) -> list[str]:
    return [f"192.0.2.{index + 1}" for index in range(servers)]


# -- the reference: the algorithm as it was, per address -----------------------


@dataclass
class ReferenceEntry:
    srtt_ms: float
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass
class ReferenceCache:
    ttl_s: float = 600.0
    _entries: dict[str, ReferenceEntry] = field(default_factory=dict)

    def get(self, address, now):
        entry = self._entries.get(address)
        if entry is None or entry.expired(now):
            return None
        return entry

    def entry(self, address, now):
        return self.get(address, now)

    def stale_entry(self, address, now):
        return self._entries.get(address)

    def srtt(self, address, now):
        entry = self.entry(address, now)
        return entry.srtt_ms if entry is not None else None

    def observe_rtt(self, address, rtt_ms, now, alpha=0.3):
        entry = self.get(address, now)
        if entry is None:
            entry = ReferenceEntry(srtt_ms=rtt_ms, expires_at=now + self.ttl_s)
            self._entries[address] = entry
            return entry
        entry.srtt_ms = alpha * rtt_ms + (1.0 - alpha) * entry.srtt_ms
        entry.expires_at = now + self.ttl_s
        return entry

    def observe_timeout(self, address, now, floor_ms=400.0):
        entry = self.get(address, now)
        if entry is None:
            entry = ReferenceEntry(srtt_ms=floor_ms, expires_at=now + self.ttl_s)
            self._entries[address] = entry
        else:
            entry.srtt_ms = max(entry.srtt_ms * 2.0, floor_ms)
            entry.expires_at = now + self.ttl_s
        return entry

    def decay(self, address, now, factor=0.98):
        entry = self.get(address, now)
        if entry is not None:
            entry.srtt_ms *= factor


class ReferenceBind:
    untried_max_ms = 10.0
    alpha = 0.3
    decay_factor = 0.98

    def __init__(self, rng):
        self.rng = rng

    def select(self, addresses, cache, now):
        best_address = None
        best_srtt = float("inf")
        for address in addresses:
            srtt = cache.srtt(address, now)
            if srtt is None:
                stale = cache.stale_entry(address, now)
                if stale is not None:
                    srtt = stale.srtt_ms
                else:
                    srtt = self.rng.uniform(0.0, self.untried_max_ms)
                cache.observe_rtt(address, srtt, now, alpha=1.0)
            if srtt < best_srtt:
                best_srtt = srtt
                best_address = address
        for address in addresses:
            if address != best_address:
                cache.decay(address, now, self.decay_factor)
        return best_address

    def on_response(self, address, rtt_ms, addresses, cache, now):
        cache.observe_rtt(address, rtt_ms, now, alpha=self.alpha)

    def on_timeout(self, address, addresses, cache, now):
        cache.observe_timeout(address, now)


class ReferenceUnbound:
    band_ms = 400.0
    unknown_ms = 376.0
    alpha = 0.5

    def __init__(self, rng):
        self.rng = rng

    def _estimate(self, address, cache, now):
        srtt = cache.srtt(address, now)
        return self.unknown_ms if srtt is None else srtt

    def select(self, addresses, cache, now):
        estimates = {
            address: self._estimate(address, cache, now) for address in addresses
        }
        best = min(estimates.values())
        eligible = [
            address for address, est in estimates.items() if est <= best + self.band_ms
        ]
        return self.rng.choice(eligible)

    def on_response(self, address, rtt_ms, addresses, cache, now):
        cache.observe_rtt(address, rtt_ms, now, alpha=self.alpha)

    def on_timeout(self, address, addresses, cache, now):
        cache.observe_timeout(address, now, floor_ms=self.unknown_ms)


class ReferencePowerDns:
    alpha = 0.4
    explore_probability = 1.0 / 16.0

    def __init__(self, rng):
        self.rng = rng

    def _estimate(self, address, cache, now):
        srtt = cache.srtt(address, now)
        if srtt is not None:
            return srtt
        stale = cache.stale_entry(address, now)
        return stale.srtt_ms if stale is not None else None

    def select(self, addresses, cache, now):
        unknown = [
            addr for addr in addresses if self._estimate(addr, cache, now) is None
        ]
        if unknown:
            return self.rng.choice(unknown)
        best = min(addresses, key=lambda addr: self._estimate(addr, cache, now))
        others = [addr for addr in addresses if addr != best]
        if others and self.rng.random() < self.explore_probability:
            return self.rng.choice(others)
        return best

    def on_response(self, address, rtt_ms, addresses, cache, now):
        cache.observe_rtt(address, rtt_ms, now, alpha=self.alpha)

    def on_timeout(self, address, addresses, cache, now):
        cache.observe_timeout(address, now)


class ReferenceWindows:
    """As it was, except the ranking compares ``is None`` where the old
    code wrote ``srtt or inf`` (the 0.0 ms bug, fixed on purpose)."""

    reprobe_interval_s = 900.0
    alpha = 0.5

    def __init__(self, rng):
        self.rng = rng
        self._favorite = None
        self._next_reprobe_at = 0.0
        self._probing = []

    def select(self, addresses, cache, now):
        if now >= self._next_reprobe_at:
            self._probing = [
                addr for addr in addresses if cache.srtt(addr, now) is None
            ] or list(addresses)
            self.rng.shuffle(self._probing)
            self._next_reprobe_at = now + self.reprobe_interval_s
            self._favorite = None
        if self._probing:
            return self._probing.pop()
        if self._favorite is None or self._favorite not in addresses:
            measured = [addr for addr in addresses if cache.srtt(addr, now) is not None]
            pool = measured or addresses

            def rank(addr):
                srtt = cache.srtt(addr, now)
                return float("inf") if srtt is None else srtt

            self._favorite = min(pool, key=rank)
        return self._favorite

    def on_response(self, address, rtt_ms, addresses, cache, now):
        cache.observe_rtt(address, rtt_ms, now, alpha=self.alpha)

    def on_timeout(self, address, addresses, cache, now):
        cache.observe_timeout(address, now)
        if address == self._favorite:
            self._favorite = None


REFERENCES = {
    "bind": ReferenceBind,
    "unbound": ReferenceUnbound,
    "powerdns": ReferencePowerDns,
    "windows": ReferenceWindows,
}


# -- the differential test -----------------------------------------------------

#: One step: (what to do, which address, an RTT, how time moves first).
#: ``("onto", k)`` jumps exactly onto the k-th smallest ``expires_at`` in
#: the cache — the boundary where ``now >= expires_at`` first holds.
steps = st.lists(
    st.tuples(
        st.sampled_from(("select", "select", "response", "timeout")),
        st.integers(0, 12),
        # A few repeated values (0.0 is a legal sample) make exact SRTT
        # ties common, so first-minimum tie-breaks are exercised.
        st.one_of(
            st.sampled_from((0.0, 5.0, 40.0)), st.floats(0.05, 2000.0, allow_nan=False)
        ),
        st.one_of(
            st.tuples(st.just("by"), st.sampled_from((0.0, 0.5, 30.0, 599.0, 600.0, 901.0))),
            st.tuples(st.just("by"), st.floats(0.0, 2000.0, allow_nan=False)),
            st.tuples(st.just("onto"), st.integers(0, 3)),
        ),
    ),
    min_size=1,
    max_size=60,
)


def entry_bits(cache) -> dict:
    return {
        address: (e.srtt_ms, e.expires_at)
        for address, e in cache._entries.items()
    }


@pytest.mark.parametrize("name", CACHE_READING)
@settings(max_examples=150, deadline=None)
@given(
    servers=st.integers(1, 13),
    seed=st.integers(0, 2**31),
    # 0.0: every entry is born expired, so nothing a select seeds is live.
    ttl_s=st.sampled_from((600.0, 900.0, 30.0, 0.0)),
    script=steps,
)
def test_one_pass_selectors_match_per_address_reference(
    name, servers, seed, ttl_s, script
):
    addresses = zone_addresses(servers)
    selector = SELECTOR_CLASSES[name](rng=random.Random(seed))
    reference = REFERENCES[name](random.Random(seed))
    cache, ref_cache = InfrastructureCache(ttl_s=ttl_s), ReferenceCache(ttl_s=ttl_s)

    now = 0.0
    last_choice = addresses[0]
    for action, index, rtt_ms, (move, amount) in script:
        if move == "by":
            now += amount
        else:
            boundaries = sorted(
                e.expires_at for e in ref_cache._entries.values() if e.expires_at >= now
            )
            if boundaries:
                now = boundaries[min(amount, len(boundaries) - 1)]
        if action == "select":
            last_choice = selector.select(addresses, cache, now)
            assert last_choice == reference.select(addresses, ref_cache, now)
        else:
            # Feedback mostly follows the last choice, as in a resolver,
            # but any server of the zone may answer late.
            address = last_choice if index % 3 else addresses[index % servers]
            if action == "response":
                selector.on_response(address, rtt_ms, addresses, cache, now)
                reference.on_response(address, rtt_ms, addresses, ref_cache, now)
            else:
                selector.on_timeout(address, addresses, cache, now)
                reference.on_timeout(address, addresses, ref_cache, now)
        assert entry_bits(cache) == entry_bits(ref_cache)
        assert selector.rng.getstate() == reference.rng.getstate()


@pytest.mark.parametrize("name", ("bind", "powerdns", "windows"))
def test_exact_srtt_tie_goes_to_the_first_listed_server(name):
    addresses = zone_addresses(5)
    overrides = {"explore_probability": 0.0} if name == "powerdns" else {}
    selector = SELECTOR_CLASSES[name](rng=random.Random(3), **overrides)
    cache = InfrastructureCache()
    for address, rtt_ms in zip(addresses, (30.0, 20.0, 20.0, 25.0, 20.0)):
        cache.observe_rtt(address, rtt_ms, now=0.0)
    if name == "windows":  # everything is measured: the probe round visits all
        assert sorted(
            selector.select(addresses, cache, 1.0) for _ in addresses
        ) == addresses
    assert selector.select(addresses, cache, 1.0) == addresses[1]


# -- call-count ceiling --------------------------------------------------------


def profiled_calls(fn) -> int:
    """Python and C calls the profiler sees while ``fn()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # `fn` itself and the closing `sys.setprofile` are the harness's.
    return calls - 2


@pytest.mark.parametrize("name", ("bind", "unbound", "powerdns"))
def test_warm_select_stays_within_call_ceiling(name):
    """A warm ``select`` over N servers is a pass, not a chain per server.

    The per-address chain this replaced made 115 / 91 / 175 calls at
    N = 13; the ceiling leaves room for ``rng.choice`` internals, not
    for a per-server accessor to come back.
    """
    servers = 13
    addresses = zone_addresses(servers)
    selector = SELECTOR_CLASSES[name](rng=random.Random(7))
    cache = InfrastructureCache(ttl_s=INFRA_TTL_S[name])
    now = 0.0
    for _ in range(80):
        choice = selector.select(addresses, cache, now)
        selector.on_response(
            choice, 10.0 + 3.0 * addresses.index(choice), addresses, cache, now
        )
        now += 1.0
    # warm: every server live
    assert all(cache.entry(address, now) for address in addresses)

    worst = max(
        profiled_calls(lambda: selector.select(addresses, cache, now))
        for _ in range(50)
    )
    assert worst <= 3 * servers + 10
