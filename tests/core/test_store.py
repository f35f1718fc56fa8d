"""Unit and property tests for the columnar observation store.

The store is the data plane every campaign flows through; these tests
pin its contracts: lossless row round-trips, O(1) distinct counters,
pickling across worker boundaries, and — the invariant the parallel
engine leans on — order-invariant merge + canonical sort.
"""

import json
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import RowView
from repro.core.store import MeasurementRun, ObservationStore, QueryObservation
from repro.netsim.geo import Continent

from .test_store_equivalence import legacy_row

CONTINENTS = list(Continent)


def make_obs(
    index,
    vp_id=None,
    timestamp=None,
    succeeded=True,
    rtt_ms=12.5,
    site="FRA",
):
    return QueryObservation(
        vp_id=index if vp_id is None else vp_id,
        probe_id=1000 + index % 7,
        recursive_address=f"10.9.0.{index % 5}",
        impl_name=("bind", "unbound", "powerdns")[index % 3],
        continent=CONTINENTS[index % len(CONTINENTS)],
        timestamp=float(index) if timestamp is None else timestamp,
        qname=f"m-{index}.probe.ourtestdomain.nl.",
        site=site if succeeded else "",
        authoritative="10.0.0.1" if succeeded else "",
        rtt_ms=rtt_ms if succeeded else None,
        attempts=1 + index % 3,
        succeeded=succeeded,
    )


observation_strategy = st.builds(
    make_obs,
    index=st.integers(min_value=0, max_value=50),
    succeeded=st.booleans(),
    rtt_ms=st.floats(
        min_value=0.1, max_value=500.0, allow_nan=False, allow_infinity=False
    ),
    site=st.sampled_from(["FRA", "SYD", "GRU"]),
)


class TestRoundTrip:
    def test_single_observation_round_trips(self):
        store = ObservationStore()
        obs = make_obs(3)
        store.append_observation(obs)
        assert store.rows[0] == obs

    def test_failed_observation_round_trips_none_rtt(self):
        store = ObservationStore()
        obs = make_obs(4, succeeded=False)
        assert obs.rtt_ms is None
        store.append_observation(obs)
        back = store.rows[0]
        assert back.rtt_ms is None
        assert not back.succeeded
        assert back == obs

    def test_campaign_append_concatenates_label_and_suffix(self):
        store = ObservationStore()
        suffix_id = store.strings.intern(".probe.ourtestdomain.nl.")
        pid = store.profile_id(7, "10.9.0.1", "bind", Continent.EU)
        store.append(
            11, pid, 120.0, b"m-11-0", suffix_id, "FRA", "10.0.0.1",
            33.0, 1, True,
        )
        row = store.rows[0]
        assert row.qname == "m-11-0.probe.ourtestdomain.nl."
        assert row.vp_id == 11
        assert row.probe_id == 7
        assert row.continent is Continent.EU

    def test_empty_label_rows_interleave_with_labelled_rows(self):
        store = ObservationStore()
        suffix_id = store.strings.intern(".probe.x.nl.")
        pid = store.profile_id(1, "10.9.0.1", "bind", Continent.EU)
        store.append(1, pid, 0.0, b"a", suffix_id, "", "", None, 1, False)
        store.append_observation(make_obs(2))
        store.append(1, pid, 2.0, b"ccc", suffix_id, "", "", None, 1, False)
        assert store.rows[0].qname == "a.probe.x.nl."
        assert store.rows[1].qname == make_obs(2).qname
        assert store.rows[2].qname == "ccc.probe.x.nl."

    @given(st.lists(observation_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rows_round_trip_any_observations(self, observations):
        store = ObservationStore()
        store.extend(observations)
        assert list(store.iter_rows()) == observations

    def test_iter_dicts_matches_observation_to_dict(self):
        store = ObservationStore()
        observations = [make_obs(i, succeeded=i % 3 != 0) for i in range(12)]
        store.extend(observations)
        expected = [legacy_row(obs) for obs in observations]
        produced = list(store.iter_dicts())
        assert produced == expected
        # Byte-level too: key order must match the legacy writer.
        assert [json.dumps(d) for d in produced] == [
            json.dumps(d) for d in expected
        ]

    def test_row_negative_index_and_bounds(self):
        store = ObservationStore()
        store.extend(make_obs(i) for i in range(5))
        assert store.rows[-1] == store.rows[4]
        with pytest.raises(IndexError):
            store.rows[5]
        with pytest.raises(IndexError):
            store.rows[-6]


class TestCounters:
    def test_distinct_counts_match_sets(self):
        store = ObservationStore()
        observations = [make_obs(i % 9, vp_id=i % 4) for i in range(30)]
        store.extend(observations)
        assert store.vp_count == len({o.vp_id for o in observations})
        assert store.probe_count == len({o.probe_id for o in observations})

    def test_counts_fold_in_appends_incrementally(self):
        store = ObservationStore()
        store.append_observation(make_obs(0, vp_id=1))
        assert store.vp_count == 1
        store.append_observation(make_obs(1, vp_id=2))
        store.append_observation(make_obs(2, vp_id=2))
        assert store.vp_count == 2
        assert len(store) == 3

    def test_interning_is_stable(self):
        store = ObservationStore()
        assert store.strings.intern("FRA") == store.strings.intern("FRA")
        pid = store.profile_id(1, "10.9.0.1", "bind", "EU")
        assert pid == store.profile_id(1, "10.9.0.1", "bind", Continent.EU)


class TestMerge:
    def test_merge_into_self_raises(self):
        store = ObservationStore()
        with pytest.raises(ValueError):
            store.merge(store)

    def test_merge_remaps_interned_ids(self):
        a = ObservationStore()
        b = ObservationStore()
        # Different intern orders on purpose.
        b.strings.intern("only-in-b")
        a.extend([make_obs(0), make_obs(1)])
        b.extend([make_obs(2), make_obs(3)])
        a.merge(b)
        assert list(a.iter_rows()) == [make_obs(i) for i in range(4)]

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_is_order_invariant(self, count, shards, rng):
        # Unique (timestamp, vp_id) per row so the canonical order is a
        # total order — any shard partition must converge to it.
        observations = [make_obs(i, vp_id=i % 7, timestamp=float(i)) for i in range(count)]
        reference = ObservationStore()
        reference.extend(observations)
        reference.sort_canonical()

        stores = [ObservationStore() for _ in range(shards)]
        for obs in observations:
            stores[rng.randrange(shards)].append_observation(obs)
        rng.shuffle(stores)
        merged = ObservationStore()
        for store in stores:
            merged.merge(store)
        merged.sort_canonical()
        assert list(merged.iter_dicts()) == list(reference.iter_dicts())
        assert merged.vp_count == reference.vp_count
        assert merged.probe_count == reference.probe_count

    def test_sort_canonical_is_noop_on_sorted_store(self):
        store = ObservationStore()
        store.extend(make_obs(i, timestamp=float(i)) for i in range(6))
        before = list(store.iter_dicts())
        store.sort_canonical()
        assert list(store.iter_dicts()) == before

    def test_append_still_works_after_sort(self):
        store = ObservationStore()
        store.extend(
            make_obs(i, timestamp=float(5 - i)) for i in range(5)
        )
        store.sort_canonical()
        store.append_observation(make_obs(9, timestamp=99.0))
        assert store.rows[-1] == make_obs(9, timestamp=99.0)
        assert [row.timestamp for row in store.iter_rows()] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 99.0,
        ]


class TestPickle:
    def test_pickle_round_trip(self):
        store = ObservationStore()
        observations = [make_obs(i, succeeded=i % 2 == 0) for i in range(9)]
        store.extend(observations)
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone.iter_rows()) == observations
        assert clone.vp_count == store.vp_count
        # The rebuilt append closure must write to the clone's columns.
        clone.append_observation(make_obs(100))
        assert len(clone) == 10
        assert len(store) == 9


def arrays(store: ObservationStore) -> dict[str, array]:
    return {
        name: value
        for name, value in store.__getstate__().items()
        if isinstance(value, array)
    }


def typecodes(store: ObservationStore) -> dict[str, str]:
    return {name: value.typecode for name, value in arrays(store).items()}


class HugeLabels(bytearray):
    """A label blob that reports 4 GiB more than it holds: the offset
    bound without allocating 4 GiB."""

    def __len__(self):
        return super().__len__() + 2**32


class TestColumnBounds:
    """Each column is sized to its values; a value past its typecode
    raises, never wraps."""

    def campaign_row(self, store, vp_id=11, attempts=1, label=b"m-11-0"):
        suffix_id = store.strings.intern(".probe.ourtestdomain.nl.")
        pid = store.profile_id(7, "10.9.0.1", "bind", Continent.EU)
        store.append(
            vp_id, pid, 120.0, label, suffix_id, "FRA", "10.0.0.1",
            33.0, attempts, True,
        )

    def test_the_columns_are_sized_to_their_values(self):
        assert typecodes(ObservationStore()) == {
            "_vp": "i", "_prof": "i", "_t": "d", "_rtt": "d", "_att": "H",
            "_ok": "b", "_site": "i", "_auth": "i", "_sfx": "i", "_lend": "I",
        }

    @pytest.mark.parametrize("field, largest", [("vp_id", 2**31 - 1), ("attempts", 2**16 - 1)])
    def test_a_value_past_its_column_raises(self, field, largest):
        store = ObservationStore()
        self.campaign_row(store, **{field: largest})
        assert getattr(store.rows[0], field) == largest
        before = store.__getstate__()
        rows = list(store.iter_rows())
        with pytest.raises(OverflowError):
            self.campaign_row(store, **{field: largest + 1})
        # The failed row was taken back out of every column.
        assert len(store) == 1
        assert list(store.iter_rows()) == rows
        after = store.__getstate__()
        for name in typecodes(store):
            assert after[name] == before[name], name
        assert after["_labels"] == before["_labels"]
        self.campaign_row(store, vp_id=12)
        assert [row.vp_id for row in store.iter_rows()] == [rows[0].vp_id, 12]

    def test_a_label_offset_past_4_gib_raises(self):
        store = ObservationStore()
        store._labels = HugeLabels()
        store._bind_append()
        with pytest.raises(OverflowError):
            self.campaign_row(store)

    def test_a_merge_past_4_gib_of_labels_raises(self):
        store, other = ObservationStore(), ObservationStore()
        self.campaign_row(other)
        self.campaign_row(store, vp_id=10)
        store._labels = HugeLabels(store._labels)
        rows = list(store.iter_rows())
        columns = {name: column[:] for name, column in arrays(store).items()}
        with pytest.raises(OverflowError):
            store.merge(other)
        # All or nothing: the merge took no value into any column.
        assert len(store) == 1
        assert arrays(store) == columns
        assert bytes(store._labels) == b"m-11-0"
        assert list(store.iter_rows()) == rows
        store._labels = bytearray(store._labels)
        store.merge(other)
        assert list(store.iter_rows()) == rows + list(other.iter_rows())

    def test_pickle_merge_and_sort_keep_every_typecode_and_row(self):
        observations = [
            make_obs(i, vp_id=2**31 - 1 - i % 3, timestamp=float(9 - i)) for i in range(9)
        ]
        store = ObservationStore()
        store.extend(observations[:4])
        self.campaign_row(store, vp_id=2**31 - 1, attempts=2**16 - 1)
        shard = ObservationStore()
        shard.extend(observations[4:])
        expected = typecodes(ObservationStore())

        clone = pickle.loads(pickle.dumps(store))
        assert typecodes(clone) == expected
        assert list(clone.iter_rows()) == list(store.iter_rows())

        clone.merge(pickle.loads(pickle.dumps(shard)))
        assert typecodes(clone) == expected
        assert list(clone.iter_rows()) == list(store.iter_rows()) + observations[4:]

        clone.sort_canonical()
        assert typecodes(clone) == expected
        assert sorted(clone.iter_dicts(), key=json.dumps) == sorted(
            [*store.iter_dicts(), *shard.iter_dicts()], key=json.dumps
        )
        assert [(row.timestamp, row.vp_id) for row in clone.iter_rows()] == sorted(
            (row.timestamp, row.vp_id) for row in clone.iter_rows()
        )


class TestObservationRows:
    def test_sequence_protocol(self):
        observations = [make_obs(i) for i in range(6)]
        store = ObservationStore()
        store.extend(observations)
        rows = store.rows
        assert isinstance(rows, RowView)
        assert len(rows) == 6
        assert bool(rows)
        assert rows[0] == observations[0]
        assert rows[-1] == observations[-1]
        assert rows[-6] == observations[0]
        for past_the_end in (6, -7):
            with pytest.raises(IndexError):
                rows[past_the_end]
        assert rows[1:3] == observations[1:3]
        assert rows[::-2] == observations[::-2]
        assert rows[4:1:-1] == observations[4:1:-1]
        assert rows[9:] == []
        assert list(rows) == observations
        assert rows == observations
        assert not rows != observations
        assert rows != observations[::-1]
        assert rows == store.rows
        assert observations[2] in rows
        assert list(rows).index(observations[2]) == 2
        assert list(rows).count(observations[2]) == 1
        # The view is read-only and live: rows added to the store show in it.
        assert not hasattr(rows, "append")
        store.append_observation(make_obs(77))
        assert len(rows) == 7
        assert rows[-1] == make_obs(77)

    @given(st.lists(observation_strategy, max_size=20), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_an_index_reads_what_iteration_reads(self, observations, labelled):
        store = ObservationStore()
        store.extend(observations)
        if labelled:  # campaign rows: a label blob beside the suffix
            suffix_id = store.strings.intern(".probe.x.nl.")
            pid = store.profile_id(1, "10.9.0.1", "bind", Continent.EU)
            store.append(1, pid, 0.0, b"m-1-0", suffix_id, "FRA", "a", 9.5, 2, True)
        rows = store.rows
        assert [rows[i] for i in range(len(rows))] == list(rows)

    def test_empty_rows_are_falsy(self):
        assert not ObservationStore().rows
        assert ObservationStore().rows == []

    def test_eq_against_non_sequence_is_not_implemented(self):
        assert (ObservationStore().rows == 7) is False
        assert ObservationStore().rows.__eq__(7) is NotImplemented


class TestMeasurementRun:
    def test_seed_constructor_signature(self):
        observations = [make_obs(i, vp_id=i % 3) for i in range(9)]
        run = MeasurementRun("d.nl.", 120.0, 360.0, observations)
        assert isinstance(run.observations, RowView)
        assert run.observations == observations
        assert run.vp_count == 3
        assert run.probe_count == len({o.probe_id for o in observations})

    def test_equality(self):
        observations = [make_obs(i) for i in range(4)]
        a = MeasurementRun("d.nl.", 120.0, 360.0, observations)
        b = MeasurementRun("d.nl.", 120.0, 360.0, observations)
        assert a == b
        b.store.append_observation(make_obs(9))
        assert a != b
