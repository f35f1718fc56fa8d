"""Zone data model and authoritative lookup logic.

A :class:`Zone` stores RRsets indexed by (owner name, type) and answers
the classic authoritative questions: exact match, CNAME chase, delegation
(referral), wildcard synthesis, NXDOMAIN vs NODATA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ZoneError
from .name import Name
from .rdata import CNAME, NS, SOA, Rdata
from .records import ResourceRecord, RRset
from .types import RRClass, RRType

WILDCARD_LABEL = b"*"


class LookupStatus(enum.Enum):
    """Outcome category of a zone lookup."""

    SUCCESS = "success"          # answer RRset(s) found
    CNAME = "cname"              # alias found; answer holds the CNAME chain
    DELEGATION = "delegation"    # below a zone cut; authority holds NS
    NODATA = "nodata"            # name exists, type does not
    NXDOMAIN = "nxdomain"        # name does not exist


@dataclass
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
        #: bumped on every mutation; response-template caches key on it.
        self.version = 0
        #: what :meth:`lookup` derives from the data once per version:
        #: folded labels of each delegation point -> its NS RRset, and
        #: whether any existing name's first label is ``*``.
        self._indexed_version = -1
        self._cuts: dict[tuple[bytes, ...], RRset] = {}
        self._has_wildcard = False

    # -- mutation ---------------------------------------------------------

    def add_record(self, record: ResourceRecord) -> None:
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is out of zone {self.origin}")
        key = (record.name, record.rrtype)
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRset(record.name, record.rrtype, record.rrclass, record.ttl)
            self._rrsets[key] = rrset
            self._by_owner.setdefault(record.name, {})[record.rrtype] = rrset
        rrset.add(record.rdata, record.ttl)
        self.version += 1
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

    def delete_rrset(self, name: Name, rrtype: RRType) -> bool:
        """Remove one (owner, type) RRset; True when something was removed.

        The owner stays in the name tree (an RFC 2136 delete does not
        un-exist empty non-terminals), so the lookup outcome for the
        deleted type becomes NODATA, exactly as if the RRset were empty.
        """
        rrset = self._rrsets.pop((name, rrtype), None)
        if rrset is None:
            return False
        by_type = self._by_owner.get(name)
        if by_type is not None:
            by_type.pop(rrtype, None)
            if not by_type:
                del self._by_owner[name]
        self.version += 1
        return True

    def remove_rdata(self, name: Name, rrtype: RRType, rdata: Rdata) -> bool:
        """Remove a single RR from its RRset; True when it was present."""
        rrset = self._rrsets.get((name, rrtype))
        if rrset is None or rdata not in rrset.rdatas:
            return False
        if len(rrset.rdatas) == 1:
            # An RRset never stays behind empty: a delegation whose last
            # NS went would otherwise keep serving a referral to nowhere.
            return self.delete_rrset(name, rrtype)
        rrset.rdatas.remove(rdata)
        self.version += 1
        return True

    def bump_version(self) -> None:
        """Invalidate cached response templates after out-of-band edits."""
        self.version += 1

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

    def soa_negative_ttl(self) -> int:
        """Negative-caching TTL: min(SOA TTL, SOA MINIMUM), RFC 2308."""
        soa = self.soa
        if soa is None:
            return 0
        minimum = soa.rdatas[0].minimum if isinstance(soa.rdatas[0], SOA) else 0
        return min(soa.ttl, minimum)

    # -- lookup -------------------------------------------------------------

    def _reindex(self) -> None:
        """Rebuild the cut and wildcard index for the current version."""
        origin = self.origin
        self._cuts = {
            name._folded: rrset
            for (name, rrtype), rrset in self._rrsets.items()
            if rrtype == RRType.NS and name != origin
        }
        self._has_wildcard = any(
            name._labels[:1] == (WILDCARD_LABEL,) for name in self._names
        )
        self._indexed_version = self.version

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Authoritatively resolve ``qname``/``qtype`` within this zone."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.NXDOMAIN)
        if self._indexed_version != self.version:
            self._reindex()

        cuts = self._cuts
        if cuts:
            # The first name with NS records on the way down from the
            # origin is the cut (NS below the apex delegates).
            folded = qname._folded
            below = len(folded) - len(self.origin._labels)
            for start in range(below - 1, -1, -1):
                ns_rrset = cuts.get(folded[start:])
                if ns_rrset is not None:
                    result = LookupResult(
                        LookupStatus.DELEGATION, authority=[ns_rrset]
                    )
                    result.additional = self._glue_for(ns_rrset)
                    return result

        if qname in self._names:
            rrset = self._rrsets.get((qname, qtype))
            if rrset:
                return LookupResult(LookupStatus.SUCCESS, answers=[rrset])
            cname = self._rrsets.get((qname, RRType.CNAME))
            if cname and qtype != RRType.CNAME:
                return self._chase_cname(cname, qtype)
            if qtype == RRType.ANY:
                by_type = self._by_owner.get(qname)
                if by_type:
                    answers = [rs for rs in by_type.values() if rs]
                    if answers:
                        return LookupResult(
                            LookupStatus.SUCCESS, answers=answers
                        )
            return self._negative(LookupStatus.NODATA)

        if self._has_wildcard:
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
        names = self._names
        encloser = qname.parent()
        while encloser not in names:
            encloser = encloser.parent()
        # One label replaced by "*" on a validated name: still valid.
        wildcard = Name._from_validated(
            (WILDCARD_LABEL,) + encloser._labels,
            (WILDCARD_LABEL,) + encloser._folded,
        )
        rrset = self._rrsets.get((wildcard, qtype))
        if rrset:
            synthesized = RRset(qname, rrset.rrtype, rrset.rrclass, rrset.ttl)
            for rdata in rrset:
                synthesized.add(rdata)
            return LookupResult(LookupStatus.SUCCESS, answers=[synthesized])
        if wildcard in names:
            return self._negative(LookupStatus.NODATA)
        return None

    def _negative(self, status: LookupStatus) -> LookupResult:
        soa = self.soa
        return LookupResult(status, authority=[soa] if soa else [])

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
