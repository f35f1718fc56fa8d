"""Domain names.

A :class:`Name` is an immutable, case-preserving but case-insensitively
comparable sequence of labels, plus conversions between presentation
format (``www.example.nl.``), wire format (length-prefixed labels), and
the compression-pointer scheme of RFC 1035 §4.1.4.

Names are *the* hot object of the wire codec: every decoded message,
zone lookup, and cache key allocates and hashes them.  Two disciplines
keep that cheap:

* a validation-free flyweight constructor (:meth:`Name._from_validated`)
  for labels that are already known-good — decoded wire labels, slices
  of an existing name — with lazily cached hash and uncompressed wire
  bytes;
* a small intern table (:meth:`Name.intern`) so long-lived hot names
  (zone origins, stub-zone keys, well-known names) share one instance
  and therefore one cached hash/wire encoding.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    BadPointerError,
    CompressionLoopError,
    NameError_,
    TruncatedMessageError,
)

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255  # total wire length including the root label

_ESCAPED = {ord("."), ord("\\")}

#: a label's length octet, by label length
_LENGTH_OCTETS = tuple(bytes((length,)) for length in range(MAX_LABEL_LENGTH + 1))

#: interned names: exact label tuple -> canonical instance.  Bounded so
#: adversarial or cache-busting callers cannot grow it without limit.
_INTERN: dict[tuple[bytes, ...], "Name"] = {}
_INTERN_MAX = 4096

#: per-message compression state: folded labels of every name suffix
#: emitted so far -> its message offset.  Opaque to callers, who create
#: an empty dict and pass it along; only :meth:`Name._compress_into`
#: reads or writes it.  Tuples of ``bytes`` hash and compare in C.
CompressionMap = dict[tuple[bytes, ...], int]


def _escape_label(label: bytes) -> str:
    """Render one label in presentation format, escaping special bytes."""
    out: list[str] = []
    for byte in label:
        if byte in _ESCAPED:
            out.append("\\" + chr(byte))
        elif 0x21 <= byte <= 0x7E:
            out.append(chr(byte))
        else:
            out.append("\\%03d" % byte)
    return "".join(out)


def _parse_labels(text: str) -> list[bytes]:
    """Split presentation-format text into raw label bytes, handling escapes."""
    labels: list[bytes] = []
    current = bytearray()
    i = 0
    n = len(text)
    while i < n:
        char = text[i]
        if char == "\\":
            if i + 1 >= n:
                raise NameError_(f"dangling escape in {text!r}")
            nxt = text[i + 1]
            if nxt.isdigit():
                if i + 3 >= n or not text[i + 1 : i + 4].isdigit():
                    raise NameError_(f"bad decimal escape in {text!r}")
                value = int(text[i + 1 : i + 4])
                if value > 255:
                    raise NameError_(f"escape value {value} > 255 in {text!r}")
                current.append(value)
                i += 4
            else:
                current.append(ord(nxt))
                i += 2
        elif char == ".":
            if not current:
                raise NameError_(f"empty label in {text!r}")
            labels.append(bytes(current))
            current = bytearray()
            i += 1
        else:
            current.append(ord(char))
            i += 1
    if current:
        labels.append(bytes(current))
    return labels


class Name:
    """An immutable domain name.

    Names are always stored fully qualified; the root name has zero
    labels.  Comparison and hashing are case-insensitive per RFC 1035
    §2.3.3, while the original spelling is preserved for display.
    """

    __slots__ = ("_labels", "_folded", "_hash", "_wire", "_wlen")

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(labels)
        total = 1
        for label in labels:
            if not label:
                raise NameError_("empty label")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes"
                )
            total += len(label) + 1
        if total > MAX_NAME_LENGTH:
            raise NameError_("name exceeds 255 wire bytes")
        self._labels = labels
        self._wlen = total
        self._hash = None
        self._wire = None

    def __getattr__(self, attr):
        # ``_folded`` is computed on first use: many decoded names (e.g.
        # response question names) are never compared or hashed, so the
        # per-label fold would be pure waste.  With __slots__, reading
        # the unset slot lands here exactly once per instance.
        if attr == "_folded":
            labels = self._labels
            folded = tuple(label.lower() for label in labels)
            if folded == labels:
                folded = labels  # lets a child share it (see _child)
            self._folded = folded
            return folded
        if attr == "_wlen":
            labels = self._labels
            length = sum(map(len, labels)) + len(labels) + 1
            self._wlen = length
            return length
        raise AttributeError(attr)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        labels: tuple[bytes, ...],
        folded: tuple[bytes, ...] | None = None,
    ) -> "Name":
        """Flyweight constructor for labels that are already known-good.

        Invariants the caller must guarantee: every label is non-empty,
        at most :data:`MAX_LABEL_LENGTH` bytes, and the total wire
        length fits :data:`MAX_NAME_LENGTH`.  Slices of an existing
        name and freshly decoded wire labels (whose length byte bounds
        them at 63) satisfy this by construction.
        """
        self = object.__new__(cls)
        self._labels = labels
        if folded is not None:
            self._folded = folded
        self._hash = None
        self._wire = None
        return self

    def intern(self) -> "Name":
        """Return the canonical shared instance for this exact spelling.

        Interned instances accumulate cached hash/wire state once and
        keep it for the process lifetime — use for long-lived hot names
        (zone origins, stub-zone keys), not per-query unique labels.
        """
        cached = _INTERN.get(self._labels)
        if cached is not None:
            return cached
        if len(_INTERN) < _INTERN_MAX:
            _INTERN[self._labels] = self
        return self

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format; a trailing dot is accepted and implied."""
        if text in (".", ""):
            return ROOT
        if text.endswith("."):
            text = text[:-1]
        labels = tuple(_parse_labels(text))
        interned = _INTERN.get(labels)
        if interned is not None:
            return interned
        return cls(labels)

    @classmethod
    def from_wire(
        cls,
        wire: bytes,
        offset: int,
        _memo: dict[int, tuple["Name", int]] | None = None,
    ) -> tuple["Name", int]:
        """Decode a (possibly compressed) name starting at ``offset``.

        Returns the name and the offset just past its encoding in the
        original stream (compression targets do not advance the cursor).

        ``_memo`` is a per-message decode cache (offset -> (name, end)):
        when a compression pointer targets an offset decoded earlier in
        the same message, the already-built name is reused instead of
        re-walking the label chain.
        """
        if _memo is not None:
            hit = _memo.get(offset)
            if hit is not None:
                return hit
        labels: list[bytes] = []
        cursor = offset
        end: int | None = None  # offset after the name in the original stream
        seen_pointers: set[int] | None = None  # allocated on first pointer
        total = 1  # running wire length: root byte + (len+1) per label
        wire_len = len(wire)
        while True:
            try:
                length = wire[cursor]
            except IndexError:
                raise TruncatedMessageError("name runs past end of message") from None
            if length < 64:
                if length:  # an ordinary label, the common case
                    start = cursor + 1
                    cursor = start + length
                    total += 1 + length
                    if cursor > wire_len or total > MAX_NAME_LENGTH:
                        if cursor > wire_len:
                            raise TruncatedMessageError(
                                "label runs past end of message"
                            )
                        raise NameError_("decoded name exceeds 255 wire bytes")
                    labels.append(wire[start:cursor])
                    continue
                # The root label ends the name.
                if labels:
                    name = cls._from_validated(tuple(labels))
                    name._wlen = total
                else:
                    name = ROOT
                if end is None:
                    end = cursor + 1
                    if labels:
                        # No pointer followed: the validated slice is
                        # the name's uncompressed wire form.
                        name._wire = spelled = wire[offset:end]
                        if spelled.islower():
                            # No upper-case letter (length octets are
                            # not letters): the labels are their own fold.
                            name._folded = name._labels
                if _memo is not None:
                    _memo[offset] = (name, end)
                return name, end
            if length >= 0xC0:
                if cursor + 1 >= wire_len:
                    raise TruncatedMessageError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | wire[cursor + 1]
                if target >= cursor:
                    raise BadPointerError(
                        f"forward compression pointer {target} at {cursor}"
                    )
                if seen_pointers is None:
                    seen_pointers = {target}
                elif target in seen_pointers:
                    raise CompressionLoopError(
                        f"compression pointer loop at {target}"
                    )
                else:
                    seen_pointers.add(target)
                if end is None:
                    end = cursor + 2
                if _memo is not None:
                    hit = _memo.get(target)
                    if hit is not None:
                        tail = hit[0]
                        if total + tail.wire_length() - 1 > MAX_NAME_LENGTH:
                            raise NameError_(
                                "decoded name exceeds 255 wire bytes"
                            )
                        if labels:
                            name = cls._from_validated(
                                tuple(labels) + tail._labels
                            )
                            name._wlen = total + tail._wlen - 1
                        else:
                            name = tail
                        _memo[offset] = (name, end)
                        return name, end
                cursor = target
            else:
                raise BadPointerError(f"reserved label type 0x{length:02x}")

    # -- conversions ----------------------------------------------------

    def to_text(self) -> str:
        if not self._labels:
            return "."
        return ".".join(_escape_label(label) for label in self._labels) + "."

    def to_wire(
        self,
        compress: CompressionMap | None = None,
        offset: int = 0,
    ) -> bytes:
        """Encode to wire format.

        When ``compress`` is given it maps already-emitted names to their
        message offsets; suffixes found there are replaced by pointers,
        and newly emitted suffixes at pointer-reachable offsets are added.
        """
        if compress is None:
            wire = self._wire
            if wire is None:
                out = bytearray()
                for label in self._labels:
                    out.append(len(label))
                    out += label
                out.append(0)
                wire = bytes(out)
                self._wire = wire
            return wire
        out = bytearray()
        self._compress_into(out, compress, offset)
        return bytes(out)

    def wire_into(
        self,
        out: bytearray,
        compress: CompressionMap | None = None,
    ) -> None:
        """Append the wire encoding to ``out`` (a whole-message buffer).

        The message offset of this name is ``len(out)`` at call time,
        so no separate ``offset`` argument is needed — this is the
        allocation-light path :meth:`Message._encode` uses.
        """
        if compress is None:
            out += self.to_wire()
            return
        self._compress_into(out, compress, len(out))

    def _compress_into(
        self, out: bytearray, compress: CompressionMap, base: int
    ) -> None:
        """Emit into ``out`` with compression; the name begins at message
        offset ``base`` (suffix offsets are registered relative to it).

        Only offsets a 14-bit pointer can reach are ever registered, so
        every hit is a valid pointer target.
        """
        labels = self._labels
        folded = self._folded
        position = base
        if not compress:
            # The message's first name: nothing to point at, so spell it
            # out whole and register its suffixes.
            out += self._wire or self.to_wire()
            for i, label in enumerate(labels):
                if position >= 0x4000:
                    break
                compress[folded[i:]] = position
                position += len(label) + 1
            return
        for i, label in enumerate(labels):
            suffix = folded[i:]
            target = compress.get(suffix)
            if target is not None:
                out.append(0xC0 | (target >> 8))
                out.append(target & 0xFF)
                return
            if position < 0x4000:
                compress[suffix] = position
            out.append(len(label))
            out += label
            position += len(label) + 1
        out.append(0)

    # -- structure ------------------------------------------------------

    @property
    def labels(self) -> tuple[bytes, ...]:
        return self._labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed; root's parent is an error."""
        if not self._labels:
            raise NameError_("the root name has no parent")
        labels = self._labels[1:]
        folded = labels if self._folded is self._labels else self._folded[1:]
        return Name._from_validated(labels, folded)

    def child(self, label: str | bytes) -> "Name":
        """Prepend one label."""
        if isinstance(label, str):
            parsed = _parse_labels(label)
            if len(parsed) != 1:
                raise NameError_(f"{label!r} is not a single label")
            label = parsed[0]
        if not label:
            raise NameError_("empty label")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(
                f"label {label!r} exceeds {MAX_LABEL_LENGTH} bytes"
            )
        return self._child(label, _LENGTH_OCTETS[len(label)] + label + self.to_wire())

    def _child(self, label: bytes, wire: bytes) -> "Name":
        """:meth:`child` for a ``label`` already known to be 1–63 bytes,
        where ``wire`` is the child's uncompressed wire form."""
        if len(wire) > MAX_NAME_LENGTH:
            raise NameError_("name exceeds 255 wire bytes")
        labels = (label,) + self._labels
        folded_label = label.lower()
        if folded_label == label and self._folded is self._labels:
            folded = labels
        else:
            folded = (folded_label,) + self._folded
        name = Name._from_validated(labels, folded)
        name._wire = wire
        name._wlen = len(wire)
        return name

    def concatenate(self, suffix: "Name") -> "Name":
        if self.wire_length() + suffix.wire_length() - 1 > MAX_NAME_LENGTH:
            raise NameError_("name exceeds 255 wire bytes")
        return Name._from_validated(
            self._labels + suffix._labels, self._folded + suffix._folded
        )

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` equals ``other`` or lies below it."""
        if len(other._folded) > len(self._folded):
            return False
        if not other._folded:
            return True
        return self._folded[-len(other._folded) :] == other._folded

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Labels of ``self`` below ``origin``; raises if not a subdomain."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        count = len(self._labels) - len(origin.labels)
        return self._labels[:count]

    def is_root(self) -> bool:
        return not self._labels

    def wire_length(self) -> int:
        """Uncompressed wire length in bytes (cached on first use)."""
        return self._wlen

    # -- dunder ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._folded == other._folded

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering: compare label sequences right-to-left.
        return self._folded[::-1] < other._folded[::-1]

    def __le__(self, other: "Name") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Name") -> bool:
        return not self <= other

    def __ge__(self, other: "Name") -> bool:
        return not self < other

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._folded)
            self._hash = value
        return value

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"


ROOT = Name(())
