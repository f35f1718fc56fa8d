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

    @pytest.mark.parametrize(
        "header",
        ['["passive_trace"]', '"passive_trace"', "[]", '{"kind": "passive_trace"}'],
    )
    def test_header_that_is_not_a_trace_header(self, tmp_path, header):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="bad.jsonl"):
            load_trace(path)

    @pytest.mark.parametrize(
        ("row", "why"),
        [
            ('{"src": "198.18.0.1", "srv": "a"}', "lacks 't'"),
            ('{"t": 1.0, "srv": "a"}', "lacks 'src'"),
            ('{"t": 1.0, "src": "198.18.0.1"}', "lacks 'srv'"),
            ('[1.0, "198.18.0.1", "a"]', "not a JSON object"),
            ('{"t": 1.0, "src"', "not JSON"),
            ('{"t": "noon", "src": "198.18.0.1", "srv": "a"}', ""),
            ('{"t": 1.0, "src": 5, "srv": "a"}', "'src' is int"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, why):
        path = tmp_path / "bad.jsonl"
        good = '{"t": 0.5, "src": "198.18.0.1", "srv": "a"}'
        path.write_text(
            '{"kind": "passive_trace", "observed": ["a"]}\n'
            + good + "\n\n" + row + "\n"
        )
        with pytest.raises(ValueError, match=f"bad.jsonl:4: .*{why}"):
            load_trace(path)
