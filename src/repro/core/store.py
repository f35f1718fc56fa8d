"""Columnar observation storage: the allocation-light data plane.

The paper's methodology rests on ~33M query observations; a frozen
dataclass per query caps campaigns far below that scale.  This module
stores observations as parallel ``array``/bytes columns instead — O(1)
append with **zero per-row Python objects** — while a lazy row view
materializes :class:`QueryObservation` on access.  The analyses read
neither: they read a per-VP aggregate of the columns
(:mod:`repro.analysis.aggregate`), memoised here.

Layout (one entry per observation):

``_vp``  ``array('i')``
    vantage-point id (``probe_id × 2 + ordinal``, below 2³¹).
``_prof``  ``array('i')``
    index into the *VP profile* side table.  ``probe_id``,
    ``recursive_address``, ``impl_name`` and ``continent`` are
    constants of a vantage point, so they are registered once per VP
    (:meth:`ObservationStore.profile_id`) and each row carries a single
    small integer instead of four object references.
``_t`` / ``_rtt``  ``array('d')``
    issue timestamp and final-exchange RTT (NaN encodes ``None``).
``_att`` / ``_ok``  ``array('H')`` / ``array('b')``
    attempt count (below 2¹⁶) and success flag.
``_site`` / ``_auth`` / ``_sfx``  ``array('i')``
    interned string ids (shared pool) for the answering site code, the
    answering service address, and the qname *suffix*.
``_labels`` + ``_lend``  ``bytearray`` + ``array('I')``
    the qname's unique per-query label, stored as raw bytes in one
    contiguous blob with cumulative end offsets (below 4 GiB).  A
    campaign qname is ``label + suffix`` (``m-17-3`` +
    ``.probe.ourtestdomain.nl``);
    arbitrary qnames intern the whole string as the suffix with an
    empty label.

Interning keeps a 33M-row campaign's string storage at a handful of
pool entries (sites, service addresses, one suffix); the numeric
columns cost 43 bytes/row regardless of campaign size.  A value past
its column's typecode raises ``OverflowError`` (it never wraps), and
the row it was part of is taken back out of every column.

``merge`` is order-invariant: shard stores append with their string
and profile ids remapped into the destination pools, and
:meth:`ObservationStore.sort_canonical` then restores the serial
emission order ``(timestamp, vp_id)`` — any partition of the same
rows merges to the same sequence, which is what keeps serial and
K-worker exports byte-identical.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isnan, nan

from ..netsim.geo import Continent

_EMPTY = b""
#: The one-entry-per-row columns besides ``_lend`` (label end offsets).
_ROW_COLUMNS = ("_vp", "_prof", "_t", "_rtt", "_att", "_ok", "_site", "_auth", "_sfx")


@dataclass(frozen=True, slots=True)
class QueryObservation:
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


class ObservationStore:
    """Columnar store of query observations (see module docstring)."""

    __slots__ = (
        "_vp", "_prof", "_t", "_rtt", "_att", "_ok",
        "_site", "_auth", "_sfx", "_lend", "_labels",
        "_strings", "_string_ids",
        "_profiles", "_profile_ids",
        "_continent_of", "_aggregate", "append",
    )

    def __init__(self):
        self._vp = array("i")
        self._prof = array("i")
        self._t = array("d")
        self._rtt = array("d")
        self._att = array("H")
        self._ok = array("b")
        self._site = array("i")
        self._auth = array("i")
        self._sfx = array("i")
        self._lend = array("I")
        self._labels = bytearray()
        #: interned string pool: id -> str, plus the reverse map.
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        #: VP profiles: id -> (probe_id, recursive_id, impl_id, continent_id)
        self._profiles: list[tuple[int, int, int, int]] = []
        self._profile_ids: dict[tuple[int, int, int, int], int] = {}
        self._continent_of: dict[int, Continent] = {}
        #: ``(len(self), aggregate)`` for :mod:`repro.analysis.aggregate`.
        #: Appends and merges change the length, which invalidates it;
        #: a sort only permutes rows, which the aggregate does not see.
        self._aggregate = None
        self._bind_append()

    # -- interning ---------------------------------------------------------

    def intern(self, text: str) -> int:
        """The pool id of ``text``, interning it on first sight."""
        ids = self._string_ids
        sid = ids.get(text)
        if sid is None:
            sid = ids[text] = len(self._strings)
            self._strings.append(text)
        return sid

    def profile_id(
        self,
        probe_id: int,
        recursive_address: str,
        impl_name: str,
        continent: Continent | str,
    ) -> int:
        """The id of one VP's constant fields, registered once per VP."""
        value = continent.value if isinstance(continent, Continent) else continent
        return self._register_profile(
            int(probe_id),
            self.intern(recursive_address),
            self.intern(impl_name),
            self.intern(value),
        )

    # -- appending ---------------------------------------------------------

    def _bind_append(self) -> None:
        """Build the fast-path ``append`` closure.

        One closure with every column's bound ``append`` beats a method
        doing ten attribute lookups per row by ~2x — the difference
        between missing and clearing the 1M observations/s target.  A
        value that overflows its column truncates every column back to
        the row count before the call (``_lend`` is appended last, so
        its length is that count) and re-raises.
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
        strings = self._strings
        string_ids = self._string_ids
        ends = self._lend
        columns = [getattr(self, name) for name in _ROW_COLUMNS]

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
                sid = string_ids.get(site)
                if sid is None:
                    sid = string_ids[site] = len(strings)
                    strings.append(site)
                site_a(sid)
                aid = string_ids.get(authoritative)
                if aid is None:
                    aid = string_ids[authoritative] = len(strings)
                    strings.append(authoritative)
                auth_a(aid)
                sfx_a(suffix_id)
                if label:
                    labels_extend(label)
                lend_a(len(labels))
            except OverflowError:
                count = len(ends)
                for column in columns:
                    del column[count:]
                del labels[ends[count - 1] if count else 0:]
                raise

        self.append = append

    def append_observation(self, obs: QueryObservation) -> None:
        """Generic (slow-path) append of one materialized observation."""
        self.append(
            obs.vp_id,
            self.profile_id(
                obs.probe_id, obs.recursive_address, obs.impl_name,
                obs.continent,
            ),
            obs.timestamp,
            _EMPTY,
            self.intern(obs.qname),
            obs.site,
            obs.authoritative,
            obs.rtt_ms,
            obs.attempts,
            obs.succeeded,
        )

    def append_dict(self, row: dict) -> None:
        """Append one JSONL row (the :mod:`repro.core.results` schema)."""
        self.append(
            row["vp_id"],
            self.profile_id(
                row["probe_id"], row["recursive"], row["impl"],
                row["continent"],
            ),
            row["t"],
            _EMPTY,
            self.intern(row["qname"]),
            row["site"],
            row["authoritative"],
            row["rtt_ms"],
            row["attempts"],
            row["ok"],
        )

    def extend(self, observations) -> None:
        for obs in observations:
            self.append_observation(obs)

    # -- size and distinct counters ----------------------------------------

    def __len__(self) -> int:
        return len(self._vp)

    @property
    def vp_count(self) -> int:
        """Distinct vantage points observed (read once per run summary)."""
        return len(set(self._vp))

    @property
    def probe_count(self) -> int:
        """Distinct probes observed."""
        return len({self._profiles[pid][0] for pid in set(self._prof)})

    # -- row access --------------------------------------------------------

    def _continent(self, cid: int) -> Continent:
        continent = self._continent_of.get(cid)
        if continent is None:
            continent = self._continent_of[cid] = Continent(self._strings[cid])
        return continent

    def row(self, index: int) -> QueryObservation:
        """Materialize row ``index`` as a :class:`QueryObservation`."""
        if index < 0:
            index += len(self._vp)
        if not 0 <= index < len(self._vp):
            raise IndexError(f"row {index} of {len(self._vp)}")
        strings = self._strings
        probe_id, rec_id, impl_id, cont_id = self._profiles[self._prof[index]]
        start = self._lend[index - 1] if index else 0
        label = self._labels[start:self._lend[index]]
        rtt = self._rtt[index]
        return QueryObservation(
            vp_id=self._vp[index],
            probe_id=probe_id,
            recursive_address=strings[rec_id],
            impl_name=strings[impl_id],
            continent=self._continent(cont_id),
            timestamp=self._t[index],
            qname=(label.decode("ascii") if label else "")
            + strings[self._sfx[index]],
            site=strings[self._site[index]],
            authoritative=strings[self._auth[index]],
            rtt_ms=None if isnan(rtt) else rtt,
            attempts=self._att[index],
            succeeded=bool(self._ok[index]),
        )

    def iter_rows(self):
        """Stream every row as a :class:`QueryObservation` (transient)."""
        return map(self.row, range(len(self._vp)))

    def iter_dicts(self):
        """Stream rows in the :mod:`repro.core.results` JSONL schema.

        Field order is the one list-backed writers used, so a run saved
        from the store is byte-identical to one saved from a list of
        materialized observations.
        """
        strings = self._strings
        profiles = self._profiles
        labels = self._labels
        start = 0
        for index, end in enumerate(self._lend):
            probe_id, rec_id, impl_id, cont_id = profiles[self._prof[index]]
            rtt = self._rtt[index]
            label = labels[start:end]
            start = end
            yield {
                "vp_id": self._vp[index],
                "probe_id": probe_id,
                "recursive": strings[rec_id],
                "impl": strings[impl_id],
                "continent": strings[cont_id],
                "t": self._t[index],
                "qname": (label.decode("ascii") if label else "")
                + strings[self._sfx[index]],
                "site": strings[self._site[index]],
                "authoritative": strings[self._auth[index]],
                "rtt_ms": None if isnan(rtt) else rtt,
                "attempts": self._att[index],
                "ok": bool(self._ok[index]),
            }

    @property
    def rows(self) -> "ObservationRows":
        return ObservationRows(self)

    # -- merge and canonical order -----------------------------------------

    def merge(self, other: "ObservationStore") -> None:
        """Append every row of ``other``, remapping its interned ids.

        Column-level: numeric columns extend with C-speed array copies;
        only the interned columns pay a per-row id remap.  Emission
        order is preserved (``other``'s rows land after existing rows);
        callers wanting the canonical order run
        :meth:`sort_canonical` after the last merge — together the two
        are order-invariant over any shard partition.
        """
        if other is self:
            raise ValueError("cannot merge a store into itself")
        smap = [self.intern(text) for text in other._strings]
        pmap = [
            self._register_profile(
                probe_id, smap[rec_id], smap[impl_id], smap[cont_id]
            )
            for probe_id, rec_id, impl_id, cont_id in other._profiles
        ]
        self._vp.extend(other._vp)
        self._t.extend(other._t)
        self._rtt.extend(other._rtt)
        self._att.extend(other._att)
        self._ok.extend(other._ok)
        self._prof.extend(map(pmap.__getitem__, other._prof))
        self._site.extend(map(smap.__getitem__, other._site))
        self._auth.extend(map(smap.__getitem__, other._auth))
        self._sfx.extend(map(smap.__getitem__, other._sfx))
        base = len(self._labels)
        self._labels.extend(other._labels)
        if base:
            self._lend.extend(end + base for end in other._lend)
        else:
            self._lend.extend(other._lend)

    def _register_profile(
        self, probe_id: int, rec_id: int, impl_id: int, cont_id: int
    ) -> int:
        key = (probe_id, rec_id, impl_id, cont_id)
        pid = self._profile_ids.get(key)
        if pid is None:
            pid = self._profile_ids[key] = len(self._profiles)
            self._profiles.append(key)
        return pid

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
        for name in _ROW_COLUMNS:
            column = getattr(self, name)
            setattr(
                self, name, array(column.typecode, map(column.__getitem__, order))
            )
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
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("append", "_aggregate")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._aggregate = None
        self._bind_append()

    def __repr__(self) -> str:
        return (
            f"ObservationStore(rows={len(self._vp)}, "
            f"strings={len(self._strings)}, profiles={len(self._profiles)})"
        )


class ObservationRows:
    """Sequence view over a store: list semantics, columnar storage.

    ``run.observations`` returns one of these.  Indexing, slicing,
    iteration, ``len``, equality against any sequence, and ``append`` /
    ``extend`` all behave like the list of :class:`QueryObservation`
    the seed code kept — rows materialize lazily and are never retained.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ObservationStore):
        self._store = store

    @property
    def store(self) -> ObservationStore:
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store.row(i) for i in range(*index.indices(len(self._store)))]
        return self._store.row(index)

    def __iter__(self):
        return self._store.iter_rows()

    def __bool__(self) -> bool:
        return len(self._store) > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, ObservationRows) and other._store is self._store:
            return True
        try:
            length = len(other)
        except TypeError:
            return NotImplemented
        if len(self) != length:
            return False
        return all(a == b for a, b in zip(self, other))

    __hash__ = None

    def append(self, obs: QueryObservation) -> None:
        self._store.append_observation(obs)

    def extend(self, observations) -> None:
        self._store.extend(observations)

    def count(self, value) -> int:
        return sum(1 for row in self if row == value)

    def index(self, value) -> int:
        for position, row in enumerate(self):
            if row == value:
                return position
        raise ValueError(f"{value!r} is not in rows")

    def __contains__(self, value) -> bool:
        return any(row == value for row in self)

    def __repr__(self) -> str:
        return f"ObservationRows({len(self)} rows)"


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
    def observations(self) -> ObservationRows:
        return self.store.rows

    def by_vp(self) -> dict[int, list[QueryObservation]]:
        grouped: dict[int, list[QueryObservation]] = {}
        for obs in self.store.iter_rows():
            grouped.setdefault(obs.vp_id, []).append(obs)
        return grouped

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
    "ObservationRows",
    "ObservationStore",
    "QueryObservation",
]
