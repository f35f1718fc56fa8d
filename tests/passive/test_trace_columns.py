"""Per-record memory floors of a generated passive capture.

A DITL-scale capture is millions of queries, so nothing the trace keeps
per query may be a Python object: a record is a float and four interned
ids in array columns, and a row object exists only while it is read.
These bounds are what ``peak_rss_mib`` on the suite's ``passive_warm``
rests on; they are enforced here so they hold wherever tier-1 runs.
"""

import gc
import sys
from array import array

import pytest

from repro.passive import generate_ditl_trace
from repro.passive.trace import Trace, TraceRecord, load_trace, save_trace


@pytest.fixture(scope="module")
def trace():
    return generate_ditl_trace(num_recursives=12, seed=20170412)


def test_columns_cost_at_most_24_bytes_a_record(trace):
    # Buffer bytes only: an empty array's size is its fixed header.
    column_bytes = sum(
        sys.getsizeof(column) - sys.getsizeof(array(column.typecode))
        for column in trace.columns
    )
    assert trace.query_count == 5970
    assert column_bytes / trace.query_count <= 24


def test_tracked_objects_do_not_grow_with_the_capture():
    def tracked_after(recursives: int) -> tuple[int, int]:
        gc.collect()
        before = len(gc.get_objects())
        kept = generate_ditl_trace(num_recursives=recursives, seed=1)
        gc.collect()
        return len(gc.get_objects()) - before, kept.query_count

    tracked_after(4)  # module-level caches fill on the first capture
    small, small_records = tracked_after(10)
    large, large_records = tracked_after(40)
    assert large_records > 2 * small_records
    assert small <= 16
    assert large - small <= 2


class TestRowView:
    def test_len_and_indexing(self, trace):
        rows = trace.records
        assert len(rows) == trace.query_count
        first, last = rows[0], rows[-1]
        assert isinstance(first, TraceRecord)
        assert last == rows[len(rows) - 1]
        assert first == rows[-len(rows)]
        assert first.timestamp <= last.timestamp
        assert (first.qname, first.qtype) == ("", "A")
        for past_the_end in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[past_the_end]

    def test_slices_and_iteration_agree(self, trace):
        rows = trace.records
        listed = list(rows)
        assert rows[1:] == listed[1:]
        assert rows[-3:] == listed[-3:]
        assert rows[::-500] == listed[::-500]
        assert rows == listed
        assert rows == trace.records
        assert rows != listed[:-1]
        assert rows.__eq__(7) is NotImplemented

    def test_rows_rebuild_the_trace(self, trace):
        rebuilt = Trace(trace.observed_servers, records=list(trace.records))
        assert rebuilt.observed_servers == trace.observed_servers
        assert rebuilt.records == trace.records
        assert rebuilt.queries_by_recursive() == trace.queries_by_recursive()


def test_generated_trace_round_trips_through_a_file(trace, tmp_path):
    path = tmp_path / "ditl.jsonl"
    assert save_trace(trace, path) == trace.query_count
    loaded = load_trace(path)
    assert loaded.observed_servers == trace.observed_servers
    assert loaded.records == trace.records
    # Generated queries carry no name of their own and are all type A.
    assert loaded.records[0][3:] == ("", "A")
