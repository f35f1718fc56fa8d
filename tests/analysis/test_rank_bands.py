"""Tests for the Figure 7 analysis (rank-ordered NS shares)."""

import pytest

from repro.analysis.rank_bands import analyze_rank_bands


def counts(**kwargs):
    """Helper: {'a': 10, 'b': 5} style per-server counts."""
    return dict(kwargs)


class TestAnalyze:
    def test_shares_sorted_descending(self):
        result = analyze_rank_bands(
            {"r1": counts(a=10, b=30, c=60)}, target_count=3, min_queries=1
        )
        assert result.recursives[0].shares == (0.6, 0.3, 0.1)

    def test_min_queries_filter(self):
        result = analyze_rank_bands(
            {"r1": counts(a=300), "r2": counts(a=100)},
            target_count=3,
            min_queries=250,
        )
        assert result.recursive_count == 1

    def test_padding_to_target_count(self):
        result = analyze_rank_bands(
            {"r1": counts(a=300)}, target_count=4, min_queries=1
        )
        assert result.recursives[0].shares == (1.0, 0.0, 0.0, 0.0)

    def test_distinct_targets(self):
        result = analyze_rank_bands(
            {"r1": counts(a=100, b=100, c=100)}, target_count=10, min_queries=1
        )
        assert result.recursives[0].distinct_targets == 3

    def test_pct_querying_exactly(self):
        table = {
            "one": counts(a=300),
            "two": counts(a=200, b=100),
            "all3": counts(a=100, b=100, c=100),
        }
        result = analyze_rank_bands(table, target_count=3, min_queries=1)
        assert result.pct_querying_exactly(1) == pytest.approx(100 / 3)
        assert result.pct_querying_at_least(2) == pytest.approx(200 / 3)
        assert result.pct_querying_all() == pytest.approx(100 / 3)

    def test_columns_sorted_by_concentration(self):
        table = {
            "spread": counts(a=100, b=100),
            "focused": counts(a=290, b=10),
        }
        result = analyze_rank_bands(table, target_count=2, min_queries=1)
        assert result.recursives[0].recursive == "focused"

    def test_mean_bands(self):
        table = {
            "r1": counts(a=80, b=20),
            "r2": counts(a=60, b=40),
        }
        result = analyze_rank_bands(table, target_count=2, min_queries=1)
        assert result.mean_bands() == pytest.approx([0.7, 0.3])

    def test_empty_result(self):
        result = analyze_rank_bands({}, target_count=10)
        assert result.recursive_count == 0
        assert result.pct_querying_all() == 0.0
        assert result.mean_bands() == []
