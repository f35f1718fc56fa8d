"""Tests for the passive trace format."""

import pytest

from repro.passive.trace import Trace, TraceRecord, load_trace, save_trace


@pytest.fixture
def trace():
    records = [
        TraceRecord(0.5, "198.18.0.1", "a", qname="x.nl"),
        TraceRecord(1.5, "198.18.0.1", "b", qname="y.nl"),
        TraceRecord(2.5, "198.18.0.2", "a", qname="z.nl"),
        TraceRecord(3.5, "198.18.0.1", "a", qname="w.nl"),
    ]
    return Trace(observed_servers=("a", "b", "c"), records=records)


class TestTrace:
    def test_counts(self, trace):
        assert trace.query_count == 4
        assert trace.recursive_count() == 2

    def test_queries_by_recursive(self, trace):
        table = trace.queries_by_recursive()
        assert table["198.18.0.1"] == {"a": 2, "b": 1}
        assert table["198.18.0.2"] == {"a": 1}


class TestPersistence:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = save_trace(trace, path)
        assert written == 4
        loaded = load_trace(path)
        assert loaded.observed_servers == trace.observed_servers
        assert loaded.records == trace.records

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "nope"}\n')
        with pytest.raises(ValueError):
            load_trace(path)
