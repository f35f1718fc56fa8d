"""Tests for the production-trace analytics."""

import pytest

from repro.passive.analyzer import (
    client_concentration,
    rate_distribution,
    traffic_balance,
)
from repro.passive.ditl import generate_ditl_trace
from repro.passive.trace import Trace, TraceRecord


def make_trace(counts_by_recursive):
    """Build a trace from {recursive: {server: count}}."""
    records = []
    t = 0.0
    servers = set()
    for recursive, counts in counts_by_recursive.items():
        for server, count in counts.items():
            servers.add(server)
            for _ in range(count):
                records.append(TraceRecord(t, recursive, server))
                t += 0.01
    return Trace(observed_servers=tuple(sorted(servers)), records=records)


class TestTrafficBalance:
    def test_even_split(self):
        trace = make_trace({"r1": {"a": 50, "b": 50}})
        balance = traffic_balance(trace)
        assert balance.shares == {"a": 0.5, "b": 0.5}

    def test_imbalance(self):
        trace = make_trace({"r1": {"a": 90, "b": 10}})
        balance = traffic_balance(trace)
        assert balance.shares == pytest.approx({"a": 0.9, "b": 0.1})

    def test_empty_trace(self):
        trace = Trace(observed_servers=("a",))
        assert traffic_balance(trace).shares == {"a": 0.0}


class TestRateDistribution:
    def test_quantiles(self):
        trace = make_trace(
            {f"r{i}": {"a": 10} for i in range(9)} | {"whale": {"a": 1000}}
        )
        dist = rate_distribution(trace)
        assert dist.recursives == 10
        assert dist.total_queries == 1090
        assert dist.median == pytest.approx(10.0)
        assert dist.max == 1000.0

    def test_empty(self):
        dist = rate_distribution(Trace(observed_servers=("a",)))
        assert dist.recursives == 0


class TestConcentration:
    def test_uniform_has_low_gini(self):
        trace = make_trace({f"r{i}": {"a": 100} for i in range(20)})
        concentration = client_concentration(trace)
        assert concentration.gini == pytest.approx(0.0, abs=0.01)

    def test_whale_has_high_concentration(self):
        trace = make_trace(
            {f"r{i}": {"a": 1} for i in range(99)} | {"whale": {"a": 9901}}
        )
        concentration = client_concentration(trace)
        assert concentration.top_1pct_share > 0.9
        assert concentration.gini > 0.9

    def test_top10_at_least_top1(self):
        trace = make_trace({f"r{i}": {"a": i + 1} for i in range(50)})
        concentration = client_concentration(trace)
        assert concentration.top_10pct_share >= concentration.top_1pct_share


class TestOnSyntheticDitl:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_ditl_trace(num_recursives=150, seed=4)

    def test_rates_heavy_tailed_like_real_dns(self, trace):
        dist = rate_distribution(trace)
        assert dist.p90 / dist.median > 3.0  # top decile far above the median

    def test_traffic_unevenly_balanced(self, trace):
        # Real root letters see uneven traffic; so does the synthesis.
        balance = traffic_balance(trace)
        shares = [share for share in balance.shares.values() if share > 0]
        assert max(shares) / min(shares) > 1.5

    def test_volume_concentrated_in_big_resolvers(self, trace):
        concentration = client_concentration(trace)
        assert concentration.top_10pct_share > 0.35
        assert 0.2 < concentration.gini < 0.95
