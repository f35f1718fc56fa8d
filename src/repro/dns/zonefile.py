"""Master-file (zone file) parsing and serialization, RFC 1035 §5.

Supports ``$ORIGIN``, ``$TTL``, multi-line parentheses, quoted strings,
comments, inherited owner names and TTLs, and relative names.
"""

from __future__ import annotations

from .errors import ZoneFileSyntaxError
from .name import Name
from .rdata import rdata_from_text
from .records import ResourceRecord
from .types import RRClass, RRType
from .zone import Zone


def _tokenize(text: str) -> list[tuple[int, list[str], bool]]:
    """Split zone-file text into logical lines of tokens.

    Returns (line number, tokens, owner_inherited) triples, where
    ``owner_inherited`` is true when the physical line began with
    whitespace (RFC 1035: the owner is the last stated owner).
    """
    logical: list[tuple[int, list[str], bool]] = []
    tokens: list[str] = []
    depth = 0
    start_line = 1
    owner_inherited = False

    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if depth == 0:
            if not line.strip() or line.lstrip().startswith(";"):
                continue
            start_line = lineno
            owner_inherited = line[0] in " \t"
            tokens = []
        i = 0
        n = len(line)
        while i < n:
            char = line[i]
            if char == ";":
                break
            if char in " \t":
                i += 1
                continue
            if char == "(":
                depth += 1
                i += 1
                continue
            if char == ")":
                if depth == 0:
                    raise ZoneFileSyntaxError("unbalanced ')'", lineno)
                depth -= 1
                i += 1
                continue
            if char == '"':
                j = i + 1
                out = []
                while j < n:
                    if line[j] == "\\" and j + 1 < n:
                        out.append(line[j : j + 2])
                        j += 2
                        continue
                    if line[j] == '"':
                        break
                    out.append(line[j])
                    j += 1
                if j >= n:
                    raise ZoneFileSyntaxError("unterminated string", lineno)
                tokens.append('"' + "".join(out) + '"')
                i = j + 1
                continue
            j = i
            while j < n and line[j] not in ' \t;()"':
                j += 1
            tokens.append(line[i:j])
            i = j
        if depth == 0 and tokens:
            logical.append((start_line, tokens, owner_inherited))
            tokens = []
    if depth != 0:
        raise ZoneFileSyntaxError("unbalanced '(' at end of file", len(lines))
    return logical


def _is_ttl(token: str) -> bool:
    return bool(token) and token[0].isdigit()


def _parse_ttl(token: str, lineno: int) -> int:
    """Parse a TTL, accepting unit suffixes (s, m, h, d, w)."""
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
    token = token.lower()
    if token[-1] in units:
        factor = units[token[-1]]
        digits = token[:-1]
    else:
        factor = 1
        digits = token
    if not digits.isdigit():
        raise ZoneFileSyntaxError(f"bad TTL {token!r}", lineno)
    return int(digits) * factor


def _is_class(token: str) -> bool:
    try:
        RRClass.from_text(token)
        return True
    except ValueError:
        return False


def _is_type(token: str) -> bool:
    try:
        RRType.from_text(token)
        return True
    except ValueError:
        return False


class _ZoneParser:
    """Stateful master-file parser (origin, default TTL, last owner)."""

    def __init__(self, zone: Zone, origin: Name):
        self.zone = zone
        self.current_origin = origin
        self.default_ttl: int | None = None
        self.last_owner: Name | None = None

    def parse(self, text: str) -> None:
        for lineno, tokens, owner_inherited in _tokenize(text):
            self._handle_line(lineno, tokens, owner_inherited)

    # -- directives ---------------------------------------------------------

    def _handle_line(self, lineno, tokens, owner_inherited) -> None:
        directive = tokens[0].upper()
        if directive == "$ORIGIN":
            if len(tokens) != 2:
                raise ZoneFileSyntaxError("$ORIGIN needs one argument", lineno)
            self.current_origin = Name.from_text(tokens[1])
            return
        if directive == "$TTL":
            if len(tokens) != 2:
                raise ZoneFileSyntaxError("$TTL needs one argument", lineno)
            self.default_ttl = _parse_ttl(tokens[1], lineno)
            return
        if directive.startswith("$"):
            raise ZoneFileSyntaxError(f"unsupported directive {tokens[0]}", lineno)
        self._handle_record(lineno, tokens, owner_inherited)

    # -- records ---------------------------------------------------------------

    def _handle_record(self, lineno, tokens, owner_inherited) -> None:
        if owner_inherited:
            owner = self.last_owner
            rest = tokens
        else:
            token = tokens[0]
            if token == "@":
                owner = self.current_origin
            elif token.endswith("."):
                owner = Name.from_text(token)
            else:
                owner = Name.from_text(token).concatenate(self.current_origin)
            rest = tokens[1:]
        if owner is None:
            raise ZoneFileSyntaxError("record without owner name", lineno)
        self.last_owner = owner

        ttl: int | None = None
        rrclass = RRClass.IN
        # TTL and class may appear in either order before the type.
        while rest:
            if _is_ttl(rest[0]) and ttl is None:
                ttl = _parse_ttl(rest[0], lineno)
                rest = rest[1:]
            elif _is_class(rest[0]):
                rrclass = RRClass.from_text(rest[0])
                rest = rest[1:]
            else:
                break
        if not rest:
            raise ZoneFileSyntaxError("record has no type", lineno)
        if not _is_type(rest[0]):
            raise ZoneFileSyntaxError(f"unknown RR type {rest[0]!r}", lineno)
        rrtype = RRType.from_text(rest[0])
        rdata_tokens = rest[1:]
        if ttl is None:
            ttl = self.default_ttl
        if ttl is None:
            raise ZoneFileSyntaxError("no TTL and no $TTL default", lineno)

        try:
            rdata = rdata_from_text(rrtype, rdata_tokens, self.current_origin)
        except (ValueError, IndexError) as exc:
            raise ZoneFileSyntaxError(f"bad {rrtype.to_text()} rdata: {exc}", lineno)
        self.zone.add_record(ResourceRecord(owner, rrtype, rrclass, ttl, rdata))


def parse_zone_text(text: str, origin: Name | str) -> Zone:
    """Parse master-file text into a :class:`Zone` rooted at ``origin``.

    ``$GENERATE``, ``$INCLUDE`` and any other directive but ``$ORIGIN``
    and ``$TTL`` are syntax errors.
    """
    if isinstance(origin, str):
        origin = Name.from_text(origin)
    zone = Zone(origin)
    parser = _ZoneParser(zone, origin)
    parser.parse(text)
    return zone


def zone_to_text(zone: Zone) -> str:
    """Serialize a zone back to master-file text (SOA first)."""
    lines = [f"$ORIGIN {zone.origin.to_text()}"]
    rrsets = sorted(
        zone.rrsets(),
        key=lambda rs: (rs.rrtype != RRType.SOA, rs.name, int(rs.rrtype)),
    )
    for rrset in rrsets:
        for record in rrset.records():
            lines.append(record.to_text())
    return "\n".join(lines) + "\n"
