"""Zone data model and authoritative lookup logic.

A :class:`Zone` stores RRsets indexed by (owner name, type) and answers
the classic authoritative questions: exact match, CNAME chase, delegation
(referral), wildcard synthesis, NXDOMAIN vs NODATA.

A zone is built, then frozen (:meth:`Zone.freeze`): the server that
takes it, or its first :meth:`Zone.lookup`, freezes it, and from then on
it is read-only, like the static zone files of the paper's servers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ZoneError
from .name import Name
from .rdata import CNAME, NS, Rdata
from .records import ResourceRecord, RRset
from .types import RRClass, RRType

WILDCARD_LABEL = b"*"

#: the types of an empty non-terminal in :attr:`Zone._owners` (never written)
_NO_RRSETS: Mapping[RRType, RRset] = {}


class LookupStatus(enum.Enum):
    """Outcome category of a zone lookup."""

    SUCCESS = "success"          # answer RRset(s) found
    CNAME = "cname"              # alias found; answer holds the CNAME chain
    DELEGATION = "delegation"    # below a zone cut; authority holds NS
    NODATA = "nodata"            # name exists, type does not
    NXDOMAIN = "nxdomain"        # name does not exist


@dataclass(slots=True)
class LookupResult:
    """Outcome of :meth:`Zone.lookup`."""

    status: LookupStatus
    answers: list[RRset] = field(default_factory=list)
    authority: list[RRset] = field(default_factory=list)
    additional: list[RRset] = field(default_factory=list)


class Zone:
    """An authoritative zone."""

    def __init__(self, origin: Name | str, rrclass: RRClass = RRClass.IN):
        if isinstance(origin, str):
            origin = Name.from_text(origin)
        self.origin = origin.intern()
        self.rrclass = rrclass
        self._rrsets: dict[tuple[Name, RRType], RRset] = {}
        #: owner name -> {type: rrset}, so per-owner walks (ANY answers,
        #: glue) are O(owner's types), not a scan of the whole zone.
        self._by_owner: dict[Name, dict[RRType, RRset]] = {}
        self._names: set[Name] = set()
        #: set by :meth:`freeze`; no record is added after it
        self._frozen = False
        #: what :meth:`freeze` derives from the data for :meth:`lookup`:
        #: folded labels of each delegation point -> its NS RRset; folded
        #: labels of every existing name -> its ``{type: RRset}`` (empty
        #: for an empty non-terminal); the same for each ``*`` name, keyed
        #: by its parent (the closest encloser it serves); the apex SOA.
        #: Tuples of ``bytes`` hash and compare in C.
        self._cuts: dict[tuple[bytes, ...], RRset] = {}
        self._owners: dict[tuple[bytes, ...], Mapping[RRType, RRset]] = {}
        self._wildcards: dict[tuple[bytes, ...], Mapping[RRType, RRset]] = {}
        self._soa: RRset | None = None

    # -- mutation ---------------------------------------------------------

    def add_record(self, record: ResourceRecord) -> None:
        if self._frozen:
            raise ZoneError(f"zone {self.origin} is frozen: it is being served")
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        key = (record.name, record.rrtype)
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRset(record.name, record.rrtype, record.rrclass, record.ttl)
            self._rrsets[key] = rrset
            self._by_owner.setdefault(record.name, {})[record.rrtype] = rrset
        rrset.add(record.rdata, record.ttl)
        # Record every ancestor as an existing (possibly empty non-terminal)
        # name so NODATA vs NXDOMAIN is decided correctly.
        name = record.name
        while True:
            self._names.add(name)
            if name == self.origin:
                break
            name = name.parent()

    def add(
        self,
        name: Name | str,
        rrtype: RRType,
        rdata: Rdata,
        ttl: int = 3600,
    ) -> None:
        """Convenience wrapper around :meth:`add_record`."""
        if isinstance(name, str):
            name = Name.from_text(name)
        self.add_record(ResourceRecord(name, rrtype, self.rrclass, ttl, rdata))

    # -- accessors ----------------------------------------------------------

    def get_rrset(self, name: Name, rrtype: RRType) -> RRset | None:
        return self._rrsets.get((name, rrtype))

    def rrsets(self) -> list[RRset]:
        return list(self._rrsets.values())

    @property
    def soa(self) -> RRset | None:
        return self._rrsets.get((self.origin, RRType.SOA))

    def validate(self) -> None:
        """Check minimal invariants: one SOA at apex, NS at apex."""
        soa = self.soa
        if soa is None or len(soa) != 1:
            raise ZoneError(f"zone {self.origin} needs exactly one SOA at its apex")
        if (self.origin, RRType.NS) not in self._rrsets:
            raise ZoneError(f"zone {self.origin} needs NS records at its apex")

    # -- lookup -------------------------------------------------------------

    def records(self, rrset: RRset) -> tuple[ResourceRecord, ...]:
        """``rrset.records()``, built once.

        The tuple — and with it each record's packed wire, see
        :meth:`ResourceRecord.wire_into` — is handed to every answer.
        ``rrset`` is one of this frozen zone's RRsets, or one
        :meth:`lookup` synthesised from them.
        """
        records = rrset._records
        if records is None:
            records = rrset._records = tuple(rrset.records())
        return records

    def freeze(self) -> None:
        """Build the lookup index and make the zone read-only.

        Idempotent: every server that takes the zone calls it, and so
        does the first :meth:`lookup`.  :meth:`add` / :meth:`add_record`
        raise :class:`ZoneError` from then on.
        """
        if self._frozen:
            return
        origin = self.origin
        self._cuts = {
            name._folded: rrset
            for (name, rrtype), rrset in self._rrsets.items()
            if rrtype == RRType.NS and name != origin
        }
        owners = dict.fromkeys(
            [name._folded for name in self._names], _NO_RRSETS
        )
        for name, by_type in self._by_owner.items():
            owners[name._folded] = by_type
        self._owners = owners
        self._wildcards = {
            folded[1:]: by_type
            for folded, by_type in owners.items()
            if folded[:1] == (WILDCARD_LABEL,)
        }
        self._soa = self._rrsets.get((origin, RRType.SOA))
        self._frozen = True

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Authoritatively resolve ``qname``/``qtype`` within this zone."""
        folded = qname._folded
        below = len(folded) - len(self.origin._folded)  # labels under the origin
        if below < 0 or folded[below:] != self.origin._folded:
            return LookupResult(LookupStatus.NXDOMAIN)  # not in this zone
        if not self._frozen:
            self.freeze()

        cuts = self._cuts
        if cuts:
            # The first name with NS records on the way down from the
            # origin is the cut (NS below the apex delegates).
            for start in range(below - 1, -1, -1):
                ns_rrset = cuts.get(folded[start:])
                if ns_rrset is not None:
                    result = LookupResult(
                        LookupStatus.DELEGATION, authority=[ns_rrset]
                    )
                    result.additional = self._glue_for(ns_rrset)
                    return result

        by_type = self._owners.get(folded)
        if by_type is not None:  # the name exists
            rrset = by_type.get(qtype)
            if rrset is not None:
                return LookupResult(LookupStatus.SUCCESS, [rrset], [], [])
            cname = by_type.get(RRType.CNAME)
            if cname is not None and qtype != RRType.CNAME:
                return self._chase_cname(cname, qtype)
            if qtype == RRType.ANY:
                answers = [rs for rs in by_type.values() if rs]
                if answers:
                    return LookupResult(LookupStatus.SUCCESS, answers)
            return self._negative(LookupStatus.NODATA)

        if self._wildcards:
            wildcard_result = self._try_wildcard(qname, qtype)
            if wildcard_result is not None:
                return wildcard_result
        return self._negative(LookupStatus.NXDOMAIN)

    def _chase_cname(self, cname_rrset: RRset, qtype: RRType) -> LookupResult:
        """Follow an in-zone CNAME chain, collecting the records crossed."""
        answers = [cname_rrset]
        seen: set[Name] = {cname_rrset.name}
        target = cname_rrset.rdatas[0]
        assert isinstance(target, CNAME)
        current = target.target
        while True:
            if current in seen or not current.is_subdomain_of(self.origin):
                break
            seen.add(current)
            final = self._rrsets.get((current, qtype))
            if final:
                answers.append(final)
                break
            next_cname = self._rrsets.get((current, RRType.CNAME))
            if not next_cname:
                break
            answers.append(next_cname)
            rdata = next_cname.rdatas[0]
            assert isinstance(rdata, CNAME)
            current = rdata.target
        return LookupResult(LookupStatus.CNAME, answers=answers)

    def _try_wildcard(self, qname: Name, qtype: RRType) -> LookupResult | None:
        """RFC 1034 §4.3.3 wildcard synthesis at the closest encloser."""
        # A zone with a wildcard has names, and so its origin among them:
        # the walk up from a qname below the origin ends there at the latest.
        owners = self._owners
        folded = qname._folded
        start = 1
        encloser = folded[1:]
        while encloser not in owners:
            start += 1
            encloser = folded[start:]
        by_type = self._wildcards.get(encloser)  # the types of "*.<encloser>"
        if by_type is None:
            return None
        rrset = by_type.get(qtype)
        if rrset is None:
            return self._negative(LookupStatus.NODATA)
        # The wildcard's rdatas under the qname owner; its records (and
        # their packed wire) are reused, only the owner differs.
        synthesized = RRset(
            qname, rrset.rrtype, rrset.rrclass, rrset.ttl, list(rrset.rdatas)
        )
        records = []
        for record in self.records(rrset):
            records.append(record._with_owner(qname))
        synthesized._records = tuple(records)
        return LookupResult(LookupStatus.SUCCESS, [synthesized], [], [])

    def _negative(self, status: LookupStatus) -> LookupResult:
        soa = self._soa
        return LookupResult(status, [], [] if soa is None else [soa], [])

    def _glue_for(self, ns_rrset: RRset) -> list[RRset]:
        glue: list[RRset] = []
        for rdata in ns_rrset:
            if not isinstance(rdata, NS):
                continue
            by_type = self._by_owner.get(rdata.target)
            if not by_type:
                continue
            for addr_type in (RRType.A, RRType.AAAA):
                addr = by_type.get(addr_type)
                if addr:
                    glue.append(addr)
        return glue
