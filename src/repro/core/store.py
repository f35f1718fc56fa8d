"""Columnar observation storage: the allocation-light data plane.

The paper's methodology rests on ~33M query observations; a frozen
dataclass per query caps campaigns far below that scale.  This module
stores observations as parallel ``array``/bytes columns instead — O(1)
append with **zero per-row Python objects** — while a read-only row
view builds a :class:`QueryObservation` per read.  The analyses read
neither: they read a per-VP aggregate of the columns
(:mod:`repro.analysis.aggregate`), memoised here.

Layout (``ObservationStore.COLUMNS``, one entry per observation):
``_vp`` is the vantage-point id (``probe_id × 2 + ordinal``); ``_prof``
indexes the *VP profile* side table, because ``probe_id``,
``recursive_address``, ``impl_name`` and ``continent`` are constants of
a VP (:meth:`ObservationStore.profile_id`); ``_t`` / ``_rtt`` are the
issue timestamp and final-exchange RTT (NaN encodes ``None``); ``_att``
/ ``_ok`` the attempt count and success flag; ``_site`` / ``_auth`` /
``_sfx`` interned ids of the answering site code, service address and
qname *suffix*.  The qname's unique per-query label is raw bytes in
one ``bytearray`` blob (``_labels``) with cumulative end offsets
(``_lend``, below 4 GiB): a campaign qname is ``label + suffix``
(``m-17-3`` + ``.probe.ourtestdomain.nl``), and an arbitrary qname
interns the whole string as the suffix with an empty label.

Interning keeps a 33M-row campaign's string storage at a handful of
pool entries (sites, service addresses, one suffix); the numeric
columns cost 43 bytes/row regardless of campaign size.  A value past
its column's typecode raises ``OverflowError`` (it never wraps), and
the row (or merge) it was part of is taken back out of every column.
The column mechanics (schema, interning, all-or-nothing append and
concatenate, permute, the row view, JSONL persistence) are
:mod:`repro.core.columns`, which the passive trace shares.

``merge`` is order-invariant: shard stores append with their string
and profile ids remapped into the destination pools, and
:meth:`ObservationStore.sort_canonical` then restores the serial
emission order ``(timestamp, vp_id)`` — any partition of the same
rows merges to the same sequence, which is what keeps serial and
K-worker exports byte-identical.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from math import isnan, nan
from typing import NamedTuple

from ..netsim.geo import Continent
from .columns import (
    ColumnTable, InternTable, RowView, extend_all, permute, typed_values,
)

_EMPTY = b""
#: The JSONL row keys of :mod:`repro.core.results`, in field order, and
#: the types each may hold.
_JSONL_SCHEMA = (
    ("vp_id", (int,)), ("probe_id", (int,)), ("recursive", (str,)),
    ("impl", (str,)), ("continent", (str,)), ("t", (float, int)),
    ("qname", (str,)), ("site", (str,)), ("authoritative", (str,)),
    ("rtt_ms", (float, int, type(None))), ("attempts", (int,)), ("ok", (bool,)),
)
#: The intern tables: :meth:`ObservationStore.__getstate__` holds each
#: one's list and dict as two flat entries, beside the columns and blob.
_POOLS = ("strings", "_profiles")


class QueryObservation(NamedTuple):
    """One measured query, combining client- and server-side views."""

    vp_id: int
    probe_id: int
    recursive_address: str
    impl_name: str
    continent: Continent
    timestamp: float
    qname: str
    site: str                 # site code from the TXT marker ("" if failed)
    authoritative: str        # service address the answer came from
    rtt_ms: float | None      # recursive→authoritative RTT of the answer
    attempts: int
    succeeded: bool


def _none_if_nan(rtt: float) -> float | None:
    return None if isnan(rtt) else rtt


class ObservationStore(ColumnTable):
    """Columnar store of query observations (see module docstring)."""

    __slots__ = (
        "_vp", "_prof", "_t", "_rtt", "_att", "_ok",
        "_site", "_auth", "_sfx", "_lend", "_labels",
        "strings", "_profiles", "_profile_memo", "_aggregate", "append",
    )
    #: ``_lend`` comes last: the append closure appends to it last, so
    #: its length is the row count before a failed append.
    COLUMNS = (
        ("_vp", "i"), ("_prof", "i"), ("_t", "d"), ("_rtt", "d"),
        ("_att", "H"), ("_ok", "b"), ("_site", "i"), ("_auth", "i"),
        ("_sfx", "i"), ("_lend", "I"),
    )
    ROW = QueryObservation

    def __init__(self):
        super().__init__()
        self._labels = bytearray()
        #: interned strings (sites, addresses, suffixes, profile fields)
        self.strings = InternTable()
        #: VP profiles: (probe_id, recursive_id, impl_id, continent_id)
        self._profiles = InternTable()
        self._profile_memo: tuple[list, ...] = ([], [], [], [])
        #: ``(len(self), aggregate)`` for :mod:`repro.analysis.aggregate`.
        #: Appends and merges change the length, which invalidates it;
        #: a sort only permutes rows, which the aggregate does not see.
        self._aggregate = None
        self._bind_append()

    # -- VP profiles -------------------------------------------------------

    def profile_id(
        self,
        probe_id: int,
        recursive_address: str,
        impl_name: str,
        continent: Continent | str,
    ) -> int:
        """The id of one VP's constant fields, registered once per VP.

        ``continent`` must name a :class:`Continent` (``ValueError``
        otherwise), so a store never holds one the analyses cannot read.
        """
        intern = self.strings.intern
        return self._profiles.intern((
            int(probe_id),
            intern(recursive_address),
            intern(impl_name),
            intern(Continent(continent).value),
        ))

    def _profile_columns(self) -> tuple[list, ...]:
        """Probe id, recursive address, implementation and
        :class:`Continent` by profile id (rebuilt when a profile is added)."""
        memo = self._profile_memo
        profiles = self._profiles.values
        if len(memo[0]) != len(profiles):
            text = self.strings.values
            memo = self._profile_memo = tuple(map(list, zip(*(
                (probe_id, text[rec_id], text[impl_id], Continent(text[cont_id]))
                for probe_id, rec_id, impl_id, cont_id in profiles
            ))))
        return memo

    # -- appending ---------------------------------------------------------

    def _bind_append(self) -> None:
        """Build the fast-path ``append`` closure.

        One closure with every column's bound ``append`` beats a method
        doing ten attribute lookups per row by ~2x — the difference
        between missing and clearing the 1M observations/s target.  A
        value that does not fit its column truncates every column and
        the label blob back to the row count before the call (``_lend``
        is appended last, so its length is that count) and re-raises.
        """
        vp_a = self._vp.append
        prof_a = self._prof.append
        t_a = self._t.append
        rtt_a = self._rtt.append
        att_a = self._att.append
        ok_a = self._ok.append
        site_a = self._site.append
        auth_a = self._auth.append
        sfx_a = self._sfx.append
        lend_a = self._lend.append
        labels = self._labels
        labels_extend = labels.extend
        intern = self.strings.intern
        ends = self._lend
        columns = self.columns

        def append(
            vp_id: int,
            profile_id: int,
            timestamp: float,
            label: bytes,
            suffix_id: int,
            site: str,
            authoritative: str,
            rtt_ms: float | None,
            attempts: int,
            succeeded: bool,
        ) -> None:
            try:
                vp_a(vp_id)
                prof_a(profile_id)
                t_a(timestamp)
                rtt_a(nan if rtt_ms is None else rtt_ms)
                att_a(attempts)
                ok_a(1 if succeeded else 0)
                site_a(intern(site))
                auth_a(intern(authoritative))
                sfx_a(suffix_id)
                if label:
                    labels_extend(label)
                lend_a(len(labels))
            except BaseException:
                count = len(ends)
                for column in columns:
                    del column[count:]
                del labels[ends[count - 1] if count else 0:]
                raise

        self.append = append

    def append_observation(self, obs: QueryObservation) -> None:
        """Generic (slow-path) append of one observation's fields, in
        :class:`QueryObservation` order."""
        (vp_id, probe_id, recursive_address, impl_name, continent, timestamp,
         qname, site, authoritative, rtt_ms, attempts, succeeded) = obs
        self.append(
            vp_id, self.profile_id(probe_id, recursive_address, impl_name, continent),
            timestamp, _EMPTY, self.strings.intern(qname),
            site, authoritative, rtt_ms, attempts, succeeded,
        )

    def append_dict(self, row: dict) -> None:
        """Append one JSONL row (the :mod:`repro.core.results` schema); a
        missing key or a value of the wrong type appends nothing."""
        self.append_observation(typed_values(row, _JSONL_SCHEMA))

    def extend(self, observations) -> None:
        for obs in observations:
            self.append_observation(obs)

    # -- distinct counters -------------------------------------------------

    @property
    def vp_count(self) -> int:
        """Distinct vantage points observed (read once per run summary)."""
        return len(set(self._vp))

    @property
    def probe_count(self) -> int:
        """Distinct probes observed."""
        profiles = self._profiles.values
        return len({profiles[pid][0] for pid in set(self._prof)})

    # -- row access --------------------------------------------------------

    def _fields(self, columns: list, positions: slice | None) -> list:
        vp, prof, t, rtt, att, ok, site, auth, sfx, _ends = columns
        probe_ids, recursives, impls, continents = self._profile_columns()
        text = self.strings.values.__getitem__
        return [
            vp,
            map(probe_ids.__getitem__, prof),
            map(recursives.__getitem__, prof),
            map(impls.__getitem__, prof),
            map(continents.__getitem__, prof),
            t,
            map(str.__add__, self._label_texts(positions), map(text, sfx)),
            map(text, site),
            map(text, auth),
            map(_none_if_nan, rtt),
            att,
            map(bool, ok),
        ]

    def _label_texts(self, positions: slice | None):
        """The qname label of each row ``positions`` selects, as text."""
        labels, ends = self._labels, self._lend
        if positions is None:
            starts, stops = chain((0,), ends), ends
        else:
            selected = range(len(ends))[positions]
            starts = (ends[index - 1] if index else 0 for index in selected)
            stops = map(ends.__getitem__, selected)
        return map(str, map(labels.__getitem__, map(slice, starts, stops)), repeat("ascii"))

    def iter_rows(self):
        """Stream every row as a :class:`QueryObservation` (transient)."""
        return iter(self.rows)

    def iter_dicts(self):
        """Stream rows in the :mod:`repro.core.results` JSONL schema.

        Field order is the one list-backed writers used, so a run saved
        from the store is byte-identical to one saved from a list of
        materialized observations.
        """
        strings = self.strings.values
        profiles = self._profiles.values
        for index, label in enumerate(self._label_texts(None)):
            probe_id, rec_id, impl_id, cont_id = profiles[self._prof[index]]
            yield {
                "vp_id": self._vp[index],
                "probe_id": probe_id,
                "recursive": strings[rec_id],
                "impl": strings[impl_id],
                "continent": strings[cont_id],
                "t": self._t[index],
                "qname": label + strings[self._sfx[index]],
                "site": strings[self._site[index]],
                "authoritative": strings[self._auth[index]],
                "rtt_ms": _none_if_nan(self._rtt[index]),
                "attempts": self._att[index],
                "ok": bool(self._ok[index]),
            }

    # -- merge and canonical order -----------------------------------------

    def merge(self, other: "ObservationStore") -> None:
        """Append every row of ``other``, remapping its interned ids.

        Column-level: numeric columns extend with C-speed array copies;
        only the interned columns pay a per-row id remap.  All or
        nothing: a value that does not fit leaves every column and the
        label blob as they were.  Emission order is preserved
        (``other``'s rows land after existing rows); callers wanting the
        canonical order run :meth:`sort_canonical` after the last merge
        — together the two are order-invariant over any shard partition.
        """
        if other is self:
            raise ValueError("cannot merge a store into itself")
        intern = self.strings.intern
        smap = [intern(text) for text in other.strings.values]
        pmap = [
            self._profiles.intern(
                (probe_id, smap[rec_id], smap[impl_id], smap[cont_id])
            )
            for probe_id, rec_id, impl_id, cont_id in other._profiles.values
        ]
        base = len(self._labels)
        extend_all([
            (self._vp, other._vp),
            (self._prof, map(pmap.__getitem__, other._prof)),
            (self._t, other._t),
            (self._rtt, other._rtt),
            (self._att, other._att),
            (self._ok, other._ok),
            (self._site, map(smap.__getitem__, other._site)),
            (self._auth, map(smap.__getitem__, other._auth)),
            (self._sfx, map(smap.__getitem__, other._sfx)),
            (self._lend, (end + base for end in other._lend) if base else other._lend),
            (self._labels, other._labels),
        ])

    def sort_canonical(self) -> None:
        """Stable-sort rows by ``(timestamp, vp_id)`` — the serial order.

        Ticks share one timestamp and VPs fire in vp_id order, so this
        is the order queries were issued in, whatever order they
        completed in and whichever shard ran them.
        """
        t_col = self._t
        vp_col = self._vp
        count = len(vp_col)
        order = sorted(
            range(count), key=lambda index: (t_col[index], vp_col[index])
        )
        if order == list(range(count)):
            return
        for name, _ in self.COLUMNS[:-1]:  # ``_lend`` follows the labels
            setattr(self, name, permute(getattr(self, name), order))
        old_labels = self._labels
        old_ends = self._lend
        labels = bytearray()
        ends = array(old_ends.typecode)
        for index in order:
            start = old_ends[index - 1] if index else 0
            labels.extend(old_labels[start:old_ends[index]])
            ends.append(len(labels))
        self._labels = labels
        self._lend = ends
        self._bind_append()

    # -- pickling (spawn workers ship stores back to the parent) -----------

    def __getstate__(self) -> dict:
        """One flat entry per column, the label blob and each intern
        table's list and dict (what ``bytes_per_row`` sums)."""
        state = {name: getattr(self, name) for name, _ in self.COLUMNS}
        state["_labels"] = self._labels
        for name in _POOLS:
            pool = getattr(self, name)
            state[name], state[name + "_ids"] = pool.values, pool.ids
        return state

    def __setstate__(self, state: dict) -> None:
        for name in _POOLS:
            setattr(self, name, InternTable(state.pop(name), state.pop(name + "_ids")))
        for name, value in state.items():
            setattr(self, name, value)
        self._profile_memo = ([], [], [], [])
        self._aggregate = None
        self._bind_append()

    def __repr__(self) -> str:
        return (
            f"ObservationStore(rows={len(self)}, "
            f"strings={len(self.strings.values)}, "
            f"profiles={len(self._profiles.values)})"
        )


class MeasurementRun:
    """All observations of one campaign plus its parameters.

    The constructor keeps the seed signature — ``observations`` may be
    any iterable of :class:`QueryObservation` and is ingested into the
    store — while campaigns and the parallel merge build directly on
    :attr:`store` and never materialize a row.
    """

    __slots__ = ("domain", "interval_s", "duration_s", "store")

    def __init__(
        self,
        domain: str,
        interval_s: float,
        duration_s: float,
        observations=None,
        store: ObservationStore | None = None,
    ):
        self.domain = domain
        self.interval_s = interval_s
        self.duration_s = duration_s
        self.store = store if store is not None else ObservationStore()
        if observations is not None:
            self.store.extend(observations)

    @property
    def observations(self) -> RowView:
        return self.store.rows

    @property
    def vp_count(self) -> int:
        return self.store.vp_count

    @property
    def probe_count(self) -> int:
        return self.store.probe_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementRun):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.interval_s == other.interval_s
            and self.duration_s == other.duration_s
            and self.observations == other.observations
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MeasurementRun(domain={self.domain!r}, "
            f"interval_s={self.interval_s}, duration_s={self.duration_s}, "
            f"observations={len(self.store)})"
        )


__all__ = [
    "MeasurementRun",
    "ObservationStore",
    "QueryObservation",
]
