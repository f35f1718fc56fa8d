"""Tests for response rate limiting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.rdata import NS, SOA, TXT, A
from repro.dns.rrl import ResponseRateLimiter, RrlAction
from repro.dns.server import AuthoritativeServer
from repro.dns.types import Rcode, RRType
from repro.dns.zone import Zone

ORIGIN = Name.from_text("example.nl.")


class TestLimiter:
    def test_under_limit_sends(self):
        limiter = ResponseRateLimiter(responses_per_second=3)
        actions = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(3)]
        assert actions == [RrlAction.SEND] * 3

    def test_over_limit_slips_and_drops(self):
        limiter = ResponseRateLimiter(responses_per_second=2, slip_ratio=2)
        for _ in range(2):
            limiter.check("1.2.3.4", "k", now=0.0)
        over = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(4)]
        assert RrlAction.SLIP in over
        assert RrlAction.DROP in over
        assert limiter.slipped >= 1 and limiter.dropped >= 1

    def test_window_resets(self):
        limiter = ResponseRateLimiter(responses_per_second=1, window_s=1.0)
        assert limiter.check("1.2.3.4", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=0.5) is not RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=1.2) is RrlAction.SEND

    def test_keys_isolated(self):
        limiter = ResponseRateLimiter(responses_per_second=1)
        assert limiter.check("1.2.3.4", "a", now=0.0) is RrlAction.SEND
        assert limiter.check("1.2.3.4", "b", now=0.0) is RrlAction.SEND

    def test_clients_aggregated_by_network(self):
        limiter = ResponseRateLimiter(responses_per_second=1, ipv4_prefix_len=24)
        assert limiter.check("10.0.0.1:500", "k", now=0.0) is RrlAction.SEND
        # Same /24, different host: shares the bucket (spoofing spread).
        assert limiter.check("10.0.0.2:501", "k", now=0.0) is not RrlAction.SEND

    def test_different_networks_separate(self):
        limiter = ResponseRateLimiter(responses_per_second=1)
        assert limiter.check("10.0.0.1", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("10.9.0.1", "k", now=0.0) is RrlAction.SEND

    def test_slip_ratio_zero_drops_everything(self):
        limiter = ResponseRateLimiter(responses_per_second=1, slip_ratio=0)
        limiter.check("1.2.3.4", "k", now=0.0)
        over = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(3)]
        assert over == [RrlAction.DROP] * 3

    def test_prune(self):
        # The check at 5.0 is past the prune time the first check set
        # (2.0), so it collects the stale 1.2.3.4 bucket itself.
        limiter = ResponseRateLimiter(window_s=1.0)
        limiter.check("1.2.3.4", "k", now=0.0)
        limiter.check("5.6.7.8", "k", now=5.0)
        assert len(limiter._buckets) == 1
        assert limiter.check("1.2.3.4", "k", now=5.0) is RrlAction.SEND
        assert limiter.prune(now=7.0) == 2
        assert not limiter._buckets


class TestWindowEdges:
    def test_exact_window_boundary_resets(self):
        # The window is [start, start + window_s): a check landing
        # exactly at start + window_s belongs to the *next* window.
        limiter = ResponseRateLimiter(responses_per_second=1, window_s=1.0)
        assert limiter.check("1.2.3.4", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=0.999999) is not RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=1.0) is RrlAction.SEND

    def test_rollover_restarts_the_budget_not_the_overflow(self):
        # Over-limit state never leaks across the boundary: after the
        # rollover the full per-window budget is available again.
        limiter = ResponseRateLimiter(responses_per_second=2, window_s=1.0)
        for _ in range(5):
            limiter.check("1.2.3.4", "k", now=0.5)
        actions = [limiter.check("1.2.3.4", "k", now=1.5) for _ in range(2)]
        assert actions == [RrlAction.SEND, RrlAction.SEND]

    def test_late_first_touch_anchors_the_window(self):
        # The window is anchored at the first touch, not at epoch ticks.
        limiter = ResponseRateLimiter(responses_per_second=1, window_s=1.0)
        assert limiter.check("1.2.3.4", "k", now=10.7) is RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=11.6) is not RrlAction.SEND
        assert limiter.check("1.2.3.4", "k", now=11.7) is RrlAction.SEND


class TestSlipAccounting:
    def test_slip_ratio_one_slips_everything(self):
        limiter = ResponseRateLimiter(responses_per_second=2, slip_ratio=1)
        for _ in range(2):
            limiter.check("1.2.3.4", "k", now=0.0)
        over = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(5)]
        assert over == [RrlAction.SLIP] * 5
        assert limiter.slipped == 5
        assert limiter.dropped == 0

    def test_slip_ratio_zero_exact_drop_count(self):
        limiter = ResponseRateLimiter(responses_per_second=3, slip_ratio=0)
        actions = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(10)]
        assert actions[:3] == [RrlAction.SEND] * 3
        assert actions[3:] == [RrlAction.DROP] * 7
        assert limiter.dropped == 7
        assert limiter.slipped == 0

    def test_slip_ratio_two_alternates_exactly(self):
        # BIND's slip=2: every second over-limit response slips, the
        # rest drop — counts must partition the overflow exactly.
        limiter = ResponseRateLimiter(responses_per_second=1, slip_ratio=2)
        limiter.check("1.2.3.4", "k", now=0.0)
        over = [limiter.check("1.2.3.4", "k", now=0.0) for _ in range(6)]
        assert over == [
            RrlAction.DROP, RrlAction.SLIP,
            RrlAction.DROP, RrlAction.SLIP,
            RrlAction.DROP, RrlAction.SLIP,
        ]
        assert (limiter.slipped, limiter.dropped) == (3, 3)


class TestWaterTortureAggregation:
    def test_flood_from_one_slash24_shares_the_bucket(self):
        # Water torture from spoofed hosts spread over a /24: with the
        # BIND-style zone-keyed error bucket every NXDOMAIN aggregates,
        # whatever the qname and whichever host sent it.
        from repro.netsim.adversary import water_torture_label

        limiter = ResponseRateLimiter(
            responses_per_second=5, slip_ratio=2, ipv4_prefix_len=24
        )
        zone_key = "example.nl./-/3"
        sent = 0
        for index in range(100):
            _ = water_torture_label(9, index)  # unique qname, same bucket
            action = limiter.check(
                f"198.51.100.{index % 250 + 1}", zone_key, now=0.0
            )
            sent += action is RrlAction.SEND
        assert sent == 5
        assert limiter.slipped + limiter.dropped == 95

    def test_other_slash24_keeps_its_own_budget(self):
        limiter = ResponseRateLimiter(responses_per_second=1, ipv4_prefix_len=24)
        assert limiter.check("198.51.100.7", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("198.51.100.9", "k", now=0.0) is not RrlAction.SEND
        assert limiter.check("198.51.101.7", "k", now=0.0) is RrlAction.SEND

    def test_per_client_buckets_at_slash32(self):
        # Campaign mode: /32 keeps every client independent (the
        # layout-invariance contract for sharded runs).
        limiter = ResponseRateLimiter(responses_per_second=1, ipv4_prefix_len=32)
        assert limiter.check("198.51.100.7", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("198.51.100.9", "k", now=0.0) is RrlAction.SEND


class TestPrefixLengths:
    """Clients share buckets exactly when their first ``ipv4_prefix_len``
    address bits agree — for every length, not only multiples of 8."""

    CLIENTS = ["10.1.17.3", "10.1.17.200", "10.1.31.9", "10.1.32.9", "10.2.17.3"]

    def shares_bucket(self, prefix_len: int, first: str, second: str) -> bool:
        limiter = ResponseRateLimiter(
            responses_per_second=1, slip_ratio=0, ipv4_prefix_len=prefix_len
        )
        limiter.check(first, "k", now=0.0)
        return limiter.check(f"{second}:53", "k", now=0.0) is RrlAction.DROP

    def partition(self, prefix_len: int) -> list[set[str]]:
        """CLIENTS grouped by the bucket they share."""
        groups = {
            frozenset(
                other for other in self.CLIENTS
                if self.shares_bucket(prefix_len, client, other)
            )
            for client in self.CLIENTS
        }
        return sorted((set(group) for group in groups), key=sorted)

    def test_slash20_masks_inside_the_third_octet(self):
        # 10.1.16.0/20 holds 10.1.17.x and 10.1.31.x, not 10.1.32.x.
        assert self.partition(20) == [
            {"10.1.17.3", "10.1.17.200", "10.1.31.9"}, {"10.1.32.9"}, {"10.2.17.3"},
        ]

    def test_slash24(self):
        assert self.partition(24) == [
            {"10.1.17.3", "10.1.17.200"}, {"10.1.31.9"}, {"10.1.32.9"},
            {"10.2.17.3"},
        ]

    def test_slash28_splits_a_slash24(self):
        # .3 is in 10.1.17.0/28, .200 in 10.1.17.192/28.
        assert self.partition(28) == [
            {"10.1.17.200"}, {"10.1.17.3"}, {"10.1.31.9"}, {"10.1.32.9"},
            {"10.2.17.3"},
        ]

    def test_slash32_is_per_address(self):
        assert self.partition(32) == [{client} for client in sorted(self.CLIENTS)]

    def test_slash0_is_one_bucket_for_ipv4(self):
        assert self.partition(0) == [set(self.CLIENTS)]

    def test_non_ipv4_clients_stay_per_address(self):
        limiter = ResponseRateLimiter(responses_per_second=1, ipv4_prefix_len=16)
        assert limiter.check("2001:db8::1", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("2001:db8::2", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("vp-17", "k", now=0.0) is RrlAction.SEND
        assert limiter.check("vp-17", "k", now=0.0) is not RrlAction.SEND

    @pytest.mark.parametrize("prefix_len", [-1, 33, 64])
    def test_out_of_range_lengths_are_refused(self, prefix_len):
        with pytest.raises(ValueError):
            ResponseRateLimiter(ipv4_prefix_len=prefix_len)


class _NeverPrunes(ResponseRateLimiter):
    def prune(self, now: float) -> int:
        return 0


#: (advance of the time frontier, step back from it, client, key)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5]),
        st.one_of(st.sampled_from([0.0, 0.3, 0.6, 0.9]), st.floats(0.0, 0.9)),
        st.integers(0, 1),
        st.sampled_from(["a", "b"]),
    ),
    max_size=200,
)


class TestSelfPrune:
    @settings(max_examples=200, deadline=None)
    @given(steps=_STEPS, window_s=st.sampled_from([0.5, 1.0, 2.0]))
    def test_self_prune_is_behaviour_neutral(self, steps, window_s):
        # The kernel steps a limiter's `now` back by less than a window
        # (handler at send + rtt/2, deliveries in send + rtt order).
        # Within that, a limiter that prunes decides exactly as one that
        # never does: a pruned bucket would restart on its next touch.
        kept = _NeverPrunes(responses_per_second=1, slip_ratio=2, window_s=window_s)
        pruned = ResponseRateLimiter(
            responses_per_second=1, slip_ratio=2, window_s=window_s
        )
        frontier = 0.0
        for advance, back, client, key in steps:
            frontier += advance * window_s
            now = frontier - back * window_s
            client = f"10.0.{client}.1"
            assert pruned.check(client, key, now) == kept.check(client, key, now)
        assert (pruned.slipped, pruned.dropped) == (kept.slipped, kept.dropped)

    def test_self_prune_bounds_bucket_count(self):
        # Unique keys (a water-torture NOERROR stream), time moving on:
        # only the keys first seen in the last four windows may be live.
        window_s = 1.0
        limiter = ResponseRateLimiter(window_s=window_s)
        for index in range(1000):
            now = index * 0.1
            limiter.check("1.2.3.4", f"q{index}", now=now)
            recent = sum(now - seen * 0.1 <= 4 * window_s for seen in range(index + 1))
            assert len(limiter._buckets) <= recent, index
        assert len(limiter._buckets) < 1000


def _integration_engine(*extra: tuple[str, RRType, object]) -> AuthoritativeServer:
    """The ``TestServerIntegration`` engine, ``extra`` records added to its
    zone before the engine takes it."""
    zone = Zone(ORIGIN)
    zone.add(
        ORIGIN,
        RRType.SOA,
        SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
            1, 2, 3, 4, 5),
    )
    zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
    zone.add("t.example.nl.", RRType.TXT, TXT.from_value("answer"))
    for name, rrtype, rdata in extra:
        zone.add(name, rrtype, rdata)
    return AuthoritativeServer(
        "srv", [zone],
        rate_limiter=ResponseRateLimiter(responses_per_second=2, slip_ratio=1),
    )


class TestServerIntegration:
    @pytest.fixture
    def engine(self):
        return _integration_engine()

    def test_repeated_identical_queries_limited(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=1)
        results = [
            engine.handle_wire(query.to_wire(), client="1.2.3.4:53", now=0.0)
            for _ in range(6)
        ]
        full = [w for w in results if w is not None and not Message.from_wire(w).truncated]
        slipped = [w for w in results if w is not None and Message.from_wire(w).truncated]
        assert len(full) == 2
        assert slipped  # slip_ratio=1: every over-limit response slips

    def test_slip_is_minimal_tc_response(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=2)
        last = None
        for _ in range(5):
            last = engine.handle_wire(query.to_wire(), client="1.2.3.4:53", now=0.0)
        response = Message.from_wire(last)
        assert response.truncated
        assert response.answers == []

    def test_other_clients_unaffected(self, engine):
        query = Message.make_query("t.example.nl.", RRType.TXT, msg_id=3)
        for _ in range(6):
            engine.handle_wire(query.to_wire(), client="1.2.3.4:53", now=0.0)
        wire = engine.handle_wire(query.to_wire(), client="203.0.113.9:53", now=0.0)
        response = Message.from_wire(wire)
        assert not response.truncated
        assert response.answers

    def test_no_limiter_by_default(self):
        engine = AuthoritativeServer("srv", [])
        assert engine.rate_limiter is None

    def test_nxdomain_buckets_by_zone_not_qname(self, engine):
        # BIND buckets error responses by the zone, not the (unique)
        # qname — otherwise water torture gets a fresh bucket per query
        # and RRL never fires.  Distinct nonexistent names from one /24
        # must share the budget.
        results = [
            engine.handle_wire(
                Message.make_query(
                    f"wt{index:04x}.example.nl.", RRType.A, msg_id=index
                ).to_wire(),
                client=f"198.51.100.{index + 1}:53",
                now=0.0,
            )
            for index in range(8)
        ]
        full = [
            w for w in results
            if w is not None and not Message.from_wire(w).truncated
        ]
        slipped = [
            w for w in results
            if w is not None and Message.from_wire(w).truncated
        ]
        assert len(full) == 2      # responses_per_second=2
        assert len(slipped) == 6   # slip_ratio=1: the rest slip as TC

    def test_noerror_buckets_stay_per_qname(self):
        # Positive answers for *different* names are different response
        # keys: asking for two real names doesn't share a budget (only
        # identical responses aggregate — the reflector defence).
        engine = _integration_engine(
            ("u.example.nl.", RRType.TXT, TXT.from_value("other"))
        )
        for qname in ("t.example.nl.", "u.example.nl."):
            wire = engine.handle_wire(
                Message.make_query(qname, RRType.TXT, msg_id=77).to_wire(),
                client="1.2.3.4:53",
                now=100.0,
            )
            assert not Message.from_wire(wire).truncated

    def test_noerror_buckets_ignore_query_case(self):
        # Names compare case-insensitively, so the bucket must too: a
        # reflector that 0x20-randomises its queries gets the same two
        # answers as one that does not.  (The key used to be the rendered
        # qname, and every spelling had a budget of its own.)
        engine = _integration_engine(
            ("u.example.nl.", RRType.TXT, TXT.from_value("other")),
            ("t.example.nl.", RRType.A, A("192.0.2.7")),
        )
        engine.rate_limiter = ResponseRateLimiter(
            responses_per_second=2, slip_ratio=0
        )
        spellings = ["t.example.nl.", "T.example.nl.", "t.EXAMPLE.nl.",
                     "T.Example.NL.", "t.eXaMpLe.nL.", "t.example.NL."]
        results = [
            engine.handle_wire(
                Message.make_query(qname, RRType.TXT, msg_id=index).to_wire(),
                client="1.2.3.4:53",
                now=300.0,
            )
            for index, qname in enumerate(spellings)
        ]
        assert [wire is not None for wire in results] == [True] * 2 + [False] * 4
        assert engine.rate_limiter.dropped == 4
        # Answers echo the question as asked, whatever the bucket folds.
        assert Message.from_wire(results[1]).questions[0].name.labels[0] == b"T"
        # A different name, and the same name with another type, still
        # have budgets of their own.
        for qname, qtype in (("U.example.nl.", RRType.TXT), ("T.example.nl.", RRType.A)):
            wire = engine.handle_wire(
                Message.make_query(qname, qtype, msg_id=9).to_wire(),
                client="1.2.3.4:53",
                now=300.0,
            )
            assert wire is not None and Message.from_wire(wire).answers

    def test_error_buckets_ignore_query_case_too(self, engine):
        # Already true before the folded key (the zone origin was rendered
        # from the zone, not the query); pinned beside its NOERROR twin.
        engine.rate_limiter = ResponseRateLimiter(
            responses_per_second=2, slip_ratio=0
        )
        results = [
            engine.handle_wire(
                Message.make_query(qname, RRType.A, msg_id=index).to_wire(),
                client="1.2.3.4:53",
                now=400.0,
            )
            for index, qname in enumerate(
                ["a.example.nl.", "b.EXAMPLE.nl.", "c.Example.NL.", "d.example.nl."]
            )
        ]
        assert [wire is not None for wire in results] == [True, True, False, False]

    def test_errors_answered_without_a_lookup_still_bucket_per_zone(self, engine):
        # A class the server does not serve is REFUSED before any zone
        # is looked up; its bucket is still the zone the name falls in.
        from repro.dns.types import RRClass

        results = [
            engine.handle_wire(
                Message.make_query(
                    f"h{index}.example.nl.", RRType.A, RRClass.HS, msg_id=index
                ).to_wire(),
                client="1.2.3.4:53",
                now=500.0,
            )
            for index in range(5)
        ]
        # responses_per_second=2, slip_ratio=1: the rest slip as bare TC.
        assert [
            (r.rcode, r.truncated) for r in map(Message.from_wire, results)
        ] == [(Rcode.REFUSED, False)] * 2 + [(Rcode.NOERROR, True)] * 3

    def test_nxdomain_outside_any_zone_still_limited(self, engine):
        # No zone matches: the scope falls back to the qname, and the
        # REFUSED/NXDOMAIN stream is still accounted.
        results = [
            engine.handle_wire(
                Message.make_query(
                    "gone.example.org.", RRType.A, msg_id=index
                ).to_wire(),
                client="1.2.3.4:53",
                now=200.0,
            )
            for index in range(6)
        ]
        assert engine.rate_limiter.slipped + engine.rate_limiter.dropped > 0
        assert any(w is not None for w in results)


class TestEveryStageRunsUnderALimiter:
    """The benchmark's ``campaign_hostile`` contract, in tier-1.

    ``benchmarks/suite/run.py`` fails a traced hostile run unless
    ``dns.server.template_hit_ratio == 0`` (l. 467-476) and unless every
    ``handle_wire`` call is either a ledger ``template_hit`` or has one
    ``Message.from_wire`` directly beneath it (l. 341-343): a limiter
    changes which responses are sent, never how one is computed.
    """

    def test_a_limited_server_decodes_looks_up_and_encodes_every_query(
        self, monkeypatch
    ):
        from repro.telemetry import Telemetry

        zone = Zone(ORIGIN)
        zone.add(
            ORIGIN,
            RRType.SOA,
            SOA(Name.from_text("ns1.example.nl."), Name.from_text("h.example.nl."),
                1, 2, 3, 4, 5),
        )
        zone.add(ORIGIN, RRType.NS, NS(Name.from_text("ns1.example.nl.")))
        zone.add("t.example.nl.", RRType.TXT, TXT.from_value("answer"))
        zone.add("*.probe.example.nl.", RRType.TXT, TXT.from_value("site"))
        telemetry = Telemetry.enabled_bundle(
            metrics=False, tracing=False, profiling=False, costs=True
        )
        engine = AuthoritativeServer(
            "srv", [zone], telemetry=telemetry,
            rate_limiter=ResponseRateLimiter(responses_per_second=3, slip_ratio=2),
        )
        stream = []
        for index in range(40):
            stream += [
                (f"nxns-{index:04x}.example.nl.", RRType.A),        # NXDOMAIN
                (f"m-{index}.probe.example.nl.", RRType.TXT),        # wildcard
                ("t.example.nl.", RRType.TXT),                       # exact
                ("t.example.nl.", RRType.TXT),                       # repeated
                (f"x{index % 2}.example.org.", RRType.A),            # REFUSED
            ]
        wires = [
            Message.make_query(qname, qtype, msg_id=index).to_wire()
            for index, (qname, qtype) in enumerate(stream)
        ]
        in_zone = sum(qname.endswith("example.nl.") for qname, _ in stream)

        calls = {"from_wire": 0, "to_wire": 0, "lookup": 0, "find_zone": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        zone.lookup = counted("lookup", zone.lookup)
        engine.find_zone = counted("find_zone", engine.find_zone)
        probes_per_call = []
        with monkeypatch.context() as patch:
            patch.setattr(
                Message, "from_wire", counted("from_wire", Message.from_wire)
            )
            patch.setattr(Message, "to_wire", counted("to_wire", Message.to_wire))
            # One client, one instant: every bucket overflows.
            sent = []
            for wire in wires:
                before = calls["find_zone"]
                sent.append(engine.handle_wire(wire, "1.2.3.4:53", 0.0))
                probes_per_call.append(calls["find_zone"] - before)

        ledger = telemetry.costs.phases["run"]
        answered = [wire for wire in sent if wire is not None]
        slipped = [w for w in answered if Message.from_wire(w).truncated]
        limiter = engine.rate_limiter
        assert limiter.dropped and limiter.slipped and len(answered) > len(slipped)
        assert len(slipped) == limiter.slipped == ledger["rrl_slip"]
        assert len(sent) - len(answered) == limiter.dropped == ledger["rrl_drop"]
        # One full decode per call; one encode per response sent.
        assert ledger["decode"] == calls["from_wire"] == len(wires)
        assert ledger["encode"] == calls["to_wire"] == len(answered)
        assert ledger["decode"] == ledger["encode"] + ledger["rrl_drop"]
        # No template was consulted, hit or built.
        assert "template_hit" not in ledger and "template_miss" not in ledger
        assert not engine._templates
        # Every response carried a question, so every one was checked ...
        assert ledger["rrl_check"] == len(wires)
        # ... after one zone lookup per in-zone query, limited or not,
        # and one zone-table probe per call: an error response buckets
        # under the zone its answer came from, not a second search.
        assert calls["lookup"] == in_zone
        assert probes_per_call == [1] * len(wires)
        rcodes = {Message.from_wire(w).rcode for w in answered}
        assert rcodes == {Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.REFUSED}
