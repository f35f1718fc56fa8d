"""Stateful differential test: the evicting cache vs a never-evicting dict.

Sweeping expired entries on every read and ``put`` must be invisible
to readers as long as ``now`` never decreases: every
``get``/``get_negative``/``lookup`` result and the ``hits``/``misses``
counters have to match a reference that keeps everything forever and
only compares ``now`` to the expiry.
TTLs and clock steps share a small grid so expiry lands exactly on
``now`` often.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dns.name import Name
from repro.dns.rdata import TXT
from repro.dns.records import ResourceRecord
from repro.dns.types import RRClass, RRType
from repro.netsim.clock import SimClock
from repro.resolvers.rrcache import RecordCache

KEYS = st.tuples(
    st.sampled_from([Name.from_text(f"k{i}.ourtestdomain.nl.") for i in range(3)]),
    st.sampled_from([RRType.TXT, RRType.A]),
)
TTLS = st.sampled_from([0, 1, 2, 5])


class CacheVsReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimClock()
        self.cache = RecordCache()
        self.cache.bind_clock(self.clock)
        # key -> (payload, expires_at); nothing is ever removed on expiry
        self.positive: dict = {}
        self.negative: dict = {}
        self.hits = self.misses = 0

    def expected(self, table: dict, key):
        entry = table.get(key)
        return entry if entry is not None and self.clock.now < entry[1] else None

    def expect_positive(self, key):
        entry = self.expected(self.positive, key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    @rule(step=st.sampled_from([0.0, 0.5, 1.0, 2.0, 120.0]))
    def advance(self, step):
        self.clock.advance(step)

    @rule(key=KEYS, ttls=st.lists(TTLS, min_size=1, max_size=2))
    def put(self, key, ttls):
        name, rrtype = key
        records = [
            ResourceRecord(name, rrtype, RRClass.IN, ttl, TXT.from_value("v"))
            for ttl in ttls
        ]
        self.cache.put(name, rrtype, records, self.clock.now)
        self.positive[key] = (records, self.clock.now + min(ttls))
        self.negative.pop(key, None)  # a positive answer replaces the negative

    @rule(key=KEYS, ttl=TTLS, nxdomain=st.booleans())
    def put_negative(self, key, ttl, nxdomain):
        self.cache.put_negative(*key, nxdomain, ttl, self.clock.now)
        self.negative[key] = (nxdomain, self.clock.now + ttl)

    @rule(key=KEYS, bound=st.booleans())
    def get(self, key, bound):
        got = (
            self.cache.lookup(*key) if bound
            else self.cache.get(*key, self.clock.now)
        )
        want = self.expect_positive(key)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.records, got.expires_at) == want

    @rule(key=KEYS, bound=st.booleans())
    def get_negative(self, key, bound):
        got = (
            self.cache.lookup_negative(*key) if bound
            else self.cache.get_negative(*key, self.clock.now)
        )
        want = self.expected(self.negative, key)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.nxdomain, got.expires_at) == want

    @invariant()
    def counters_agree(self):
        assert (self.cache.hits, self.cache.misses) == (self.hits, self.misses)

    @invariant()
    def nothing_alive_was_dropped_and_size_is_bounded(self):
        alive = 0
        for reference, table in (
            (self.positive, self.cache._positive),
            (self.negative, self.cache._negative),
        ):
            for (name, rrtype), (_, expires_at) in reference.items():
                if self.expected(reference, (name, rrtype)) is not None:
                    alive += 1
                    # An entry is ``(expires_at, payload)`` under one bytes
                    # key: the case-folded owner wire and the type.
                    key = name.to_wire().lower() + rrtype.to_bytes(2, "big")
                    assert table[key][0] == expires_at
        # Live entries, plus what expired since the last sweep.
        assert alive <= len(self.cache) <= len(self.positive) + len(self.negative)
        assert len(self.cache._expiry) <= 2 * len(self.cache) + 65


TestCacheVsReference = CacheVsReference.TestCase
TestCacheVsReference.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
