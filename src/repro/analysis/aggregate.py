"""The per-(vantage point, site) aggregate every figure reads.

Figs 2–6, Table 2, the implementation breakdown and the §3.1 client
shares are functions of one tally: which sites answered each vantage
point (VP), how often, when first, and over what RTTs.
:func:`build_aggregate` derives it from a store's columns in one pass;
:func:`aggregate_of` memoises it on the store, so the analyses of one
campaign read its rows once.

Time within a VP is an *ordinal*: how many of its rows have an earlier
timestamp.  VPs run in the order of their first successful answer,
``(timestamp, vp_id)`` (a canonical store's order; VPs never answered
come last).  A VP's (VP, site) pairs, sorted by ``pair_site``, are
``pair_offset[v]`` up to ``pair_offset[v + 1]``; a pair's successful
answers, in time order, are ``answer_offset[p]`` up to
``answer_offset[p + 1]``.  Nothing here depends on a site set, a query
threshold or the row order, so a sort keeps the memo valid.  A VP's
continent, implementation and recursive address are those of its first
row (campaigns register one profile per VP).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import islice
from math import inf, nan
from operator import le

from ..core.columns import permute
from ..core.store import ObservationStore
from ..netsim.geo import Continent

__all__ = ["VpSiteAggregate", "aggregate_of", "build_aggregate"]


class VpSiteAggregate:
    """Columnar per-(VP, site) tally (see the module docstring)."""

    __slots__ = (
        "vp_id", "continent", "impl_name", "recursive_address", "rows",
        "pair_offset", "pair_site", "first_ordinal",
        "answer_offset", "answer_ordinal", "answer_rtt",
    )

    def __init__(self):
        self.vp_id = array("i")
        self.continent: list[Continent] = []
        self.impl_name: list[str] = []
        self.recursive_address: list[str] = []
        self.rows = array("i")
        self.pair_offset = array("i", [0])
        self.pair_site: list[str] = []
        self.first_ordinal = array("i")
        self.answer_offset = array("i", [0])
        self.answer_ordinal = array("i")
        self.answer_rtt = array("d")

    @property
    def vp_count(self) -> int:
        return len(self.vp_id)

    def pairs(self, vp: int) -> range:
        """The pair indices of VP slot ``vp``."""
        return range(self.pair_offset[vp], self.pair_offset[vp + 1])

    def answers(self, pair: int, after: int = -1) -> range:
        """Indices of ``pair``'s successful answers with an ordinal past
        ``after`` (all of them by default)."""
        low, high = self.answer_offset[pair], self.answer_offset[pair + 1]
        return range(bisect_right(self.answer_ordinal, after, low, high), high)

    def answer_counts(self, vp: int) -> dict[str, int]:
        """Successful answers of ``vp`` per site that gave any."""
        offset = self.answer_offset
        return {
            self.pair_site[pair]: offset[pair + 1] - offset[pair]
            for pair in self.pairs(vp) if offset[pair + 1] > offset[pair]
        }

    def rtts(self, answers: range) -> array:
        """The RTTs of ``answers`` (NaN where none was measured)."""
        return self.answer_rtt[answers.start:answers.stop]

    def completion(self, vp: int, sites: set[str], successful: bool) -> int | None:
        """Ordinal of the row that completes ``vp``'s view of ``sites``.

        The §4.1/§4.2 "seen every authoritative" condition: every site
        in ``sites`` answered, and no other site before the last of
        them.  ``successful`` counts only successful answers (Fig 3's
        hot cache), else any answer (Fig 2).  ``None``: never complete.
        """
        offset, ordinals = self.answer_offset, self.answer_ordinal
        firsts: dict[str, int] = {}
        for pair in self.pairs(vp):
            if not successful:
                firsts[self.pair_site[pair]] = self.first_ordinal[pair]
            elif offset[pair] < offset[pair + 1]:
                firsts[self.pair_site[pair]] = ordinals[offset[pair]]
        if not sites or not sites <= firsts.keys():
            return None
        boundary = max(firsts[site] for site in sites)
        early = any(firsts[site] < boundary for site in firsts.keys() - sites)
        return None if early else boundary


def aggregate_of(observations) -> VpSiteAggregate:
    """The aggregate of a store-backed view (memoised on the store) or
    of a plain iterable of observations (taken into a temporary store)."""
    store = getattr(observations, "table", None)
    if not isinstance(store, ObservationStore):
        store = ObservationStore()
        store.extend(observations)
        return build_aggregate(store)
    memo = store._aggregate
    if memo is None or memo[0] != len(store):
        memo = store._aggregate = (len(store), build_aggregate(store))
    return memo[1]


class _Tally:
    """One VP's state while the rows go by."""

    __slots__ = ("rows", "last_t", "last_ordinal", "first_answer_t", "profile", "pairs")

    def __init__(self, profile: int):
        self.rows, self.last_t, self.last_ordinal, self.first_answer_t = 0, nan, 0, inf
        self.profile = profile
        self.pairs: dict[int, int] = {}  # site string id -> pair


def build_aggregate(store: ObservationStore) -> VpSiteAggregate:
    """One pass over ``store``'s rows in time order, then a counting
    sort of the successful answers into their (VP, site) pairs."""
    columns = (store._vp, store._prof, store._t, store._site, store._ok)
    t_col, strings = store._t, store.strings.values
    order = range(len(t_col))
    if not all(map(le, t_col, islice(t_col, 1, None))):  # else canonical
        order = sorted(order, key=t_col.__getitem__)
        columns = [permute(col, order) for col in columns]
    empty = store.strings.ids.get("")
    tallies: dict[int, _Tally] = {}
    pair_first: list[int] = []
    pair_answers: list[int] = []
    answer_pair, answer_ordinal, answer_row = array("i"), array("i"), array("i")
    for row, vp_id, prof, t, sid, ok in zip(order, *columns):
        tally = tallies.get(vp_id)
        if tally is None:
            tally = tallies[vp_id] = _Tally(prof)
        ordinal = tally.rows
        tally.rows = ordinal + 1
        if t == tally.last_t:
            ordinal = tally.last_ordinal  # equal timestamps share one
        else:
            tally.last_t, tally.last_ordinal = t, ordinal
        if sid == empty:
            continue
        pair = tally.pairs.get(sid)
        if pair is None:
            pair = tally.pairs[sid] = len(pair_first)
            pair_first.append(ordinal)
            pair_answers.append(0)
        if ok:
            pair_answers[pair] += 1
            answer_pair.append(pair)
            answer_ordinal.append(ordinal)
            answer_row.append(row)
            if tally.first_answer_t == inf:
                tally.first_answer_t = t

    _probe_ids, recursives, impls, continents = store._profile_columns()
    agg = VpSiteAggregate()
    cursor = [0] * len(pair_first)  # next answer position of each pair
    for vp_id, tally in sorted(
        tallies.items(), key=lambda item: (item[1].first_answer_t, item[0])
    ):
        agg.vp_id.append(vp_id)
        agg.continent.append(continents[tally.profile])
        agg.impl_name.append(impls[tally.profile])
        agg.recursive_address.append(recursives[tally.profile])
        agg.rows.append(tally.rows)
        for site, pair in sorted((strings[sid], pair) for sid, pair in tally.pairs.items()):
            agg.pair_site.append(site)
            agg.first_ordinal.append(pair_first[pair])
            cursor[pair] = agg.answer_offset[-1]
            agg.answer_offset.append(cursor[pair] + pair_answers[pair])
        agg.pair_offset.append(len(agg.pair_site))

    ordinals = agg.answer_ordinal = array("i", bytes(4 * len(answer_pair)))
    rtts = agg.answer_rtt = array("d", bytes(8 * len(answer_pair)))
    rtt_col = store._rtt
    for pair, ordinal, row in zip(answer_pair, answer_ordinal, answer_row):
        at = cursor[pair]
        cursor[pair] = at + 1
        ordinals[at] = ordinal
        rtts[at] = rtt_col[row]
    return agg
