"""From-scratch DNS substrate: names, wire format, zones, authoritative engine."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "errors": "DnsError NameError_ WireFormatError ZoneError ZoneFileSyntaxError",
    "message": "Message Question",
    "name": "ROOT Name",
    "rdata": "A AAAA CAA CNAME GenericRdata MX NS OPT PTR Rdata SOA SRV TXT",
    "records": "RRset ResourceRecord",
    "rrl": "ResponseRateLimiter RrlAction",
    "server": "AXFR_TYPE_CODE AuthoritativeServer ServerStats build_axfr_response",
    "types": "Opcode RRClass RRType Rcode",
    "zone": "LookupResult LookupStatus Zone",
    "zonefile": "parse_zone_text zone_to_text",
})
