"""From-scratch DNS substrate: names, wire format, zones, authoritative engine."""

from .errors import (
    DnsError,
    NameError_,
    WireFormatError,
    ZoneError,
    ZoneFileSyntaxError,
)
from .message import Message, Question
from .name import ROOT, Name
from .rdata import (
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    SOA,
    SRV,
    TXT,
    A,
    GenericRdata,
    Rdata,
)
from .records import ResourceRecord, RRset
from .axfr import (
    NotifyReceiver,
    SecondaryZone,
    build_notify,
    request_axfr,
    zone_from_axfr,
)
from .rdata import CAA, OPT
from .rrl import ResponseRateLimiter, RrlAction
from .server import (
    DEFAULT_QUERY_LOG_MAX,
    AuthoritativeServer,
    BoundedQueryLog,
    QueryLogEntry,
    ServerStats,
)
from .types import Opcode, Rcode, RRClass, RRType
from .update import (
    UpdateHandler,
    UpdatePolicy,
    attach_update_handling,
    make_update,
)
from .zone import LookupResult, LookupStatus, Zone
from .zonefile import parse_zone_text, zone_to_text

__all__ = [
    "A",
    "AAAA",
    "AuthoritativeServer",
    "BoundedQueryLog",
    "CAA",
    "DEFAULT_QUERY_LOG_MAX",
    "CNAME",
    "DnsError",
    "GenericRdata",
    "LookupResult",
    "LookupStatus",
    "MX",
    "NotifyReceiver",
    "Message",
    "NS",
    "Name",
    "NameError_",
    "OPT",
    "Opcode",
    "PTR",
    "Question",
    "QueryLogEntry",
    "ROOT",
    "RRClass",
    "RRType",
    "RRset",
    "Rcode",
    "Rdata",
    "ResourceRecord",
    "ResponseRateLimiter",
    "RrlAction",
    "SOA",
    "SecondaryZone",
    "SRV",
    "ServerStats",
    "TXT",
    "UpdateHandler",
    "UpdatePolicy",
    "WireFormatError",
    "attach_update_handling",
    "build_notify",
    "make_update",
    "Zone",
    "ZoneError",
    "ZoneFileSyntaxError",
    "parse_zone_text",
    "request_axfr",
    "zone_from_axfr",
    "zone_to_text",
]
