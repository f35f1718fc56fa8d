"""Column mechanics of the two columnar tables.

:class:`~repro.core.store.ObservationStore` (the §3 campaign's active
observations) and :class:`~repro.passive.trace.Trace` (a DITL-style
passive capture) keep their rows as parallel typed ``array`` columns
with their strings interned, and differ only in schema and in their
domain methods.  This module owns what they share:

* :class:`InternTable`: values to dense ids and back;
* :func:`extend_all`: grow a table's buffers together, all or nothing;
* :func:`permute`: a column reordered, in a buffer of exactly its size;
* :class:`RowView`: the read-only sequence of ``NamedTuple`` rows;
* :class:`ColumnTable`: a schema of typed columns, its length and rows;
* :func:`save_jsonl` / :func:`load_jsonl`: a header line naming the
  file's ``kind``, then one JSON object per row.  Malformed input is a
  ``ValueError`` naming ``file:line``;
* :func:`typed_values`: a JSONL row's values, each checked for its type.
"""

from __future__ import annotations

import json
from array import array
from functools import partial
from operator import eq
from pathlib import Path


class InternTable:
    """Hashable values to dense ids (``ids``) and back (``values``)."""

    __slots__ = ("values", "ids")

    def __init__(self, values: list | None = None, ids: dict | None = None):
        self.values = [] if values is None else values
        self.ids = {} if ids is None else ids

    def intern(self, value) -> int:
        """The id of ``value``, adding it on first sight."""
        ids = self.ids
        vid = ids.get(value)
        if vid is None:
            vid = ids[value] = len(self.values)
            self.values.append(value)
        return vid


def extend_all(pairs) -> None:
    """``buffer.extend(values)`` for each ``(buffer, values)`` pair, all
    or nothing: if any extend raises, every buffer is truncated back to
    its length before the call and the exception propagates."""
    pairs = list(pairs)
    lengths = [len(buffer) for buffer, _ in pairs]
    try:
        for buffer, values in pairs:
            buffer.extend(values)
    except BaseException:
        for (buffer, _), length in zip(pairs, lengths):
            del buffer[length:]
        raise


def permute(column: array, order) -> array:
    """``column[order[0]], column[order[1]], …`` in a buffer of exactly
    its size; the over-allocated buffer it grows in is freed on return,
    so a caller permuting column by column holds one extra at a time."""
    grown = array(column.typecode, map(column.__getitem__, order))
    return array(column.typecode, grown)  # a same-typecode copy has no slack


class RowView:
    """Read-only rows of a :class:`ColumnTable`: ``len``, iteration, int
    and slice indexing, and ``==`` with another view or a list.  Each
    read builds its ``NamedTuple`` rows from the columns and keeps none."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def _rows(self, positions: slice | None):
        table = self.table
        columns = table.columns
        if positions is not None:
            columns = [column[positions] for column in columns]
        # ``tuple.__new__`` on a zipped row skips the argument parsing
        # of the ``NamedTuple``'s generated ``__new__``: ~3x faster.
        fields = table._fields(columns, positions)
        return map(partial(tuple.__new__, table.ROW), zip(*fields))

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self):
        return self._rows(None)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows(index))
        count = len(self.table)
        position = index + count if index < 0 else index
        if not 0 <= position < count:
            raise IndexError(f"row {index} of {count}")
        return self.table._row(position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RowView, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


class ColumnTable:
    """A schema of typed columns, one entry per row in each.

    ``COLUMNS`` lists ``(attribute, typecode)`` and ``ROW`` is the
    ``NamedTuple`` a row reads as.  A subclass defines
    ``_fields(columns, positions)``: one iterable per ``ROW`` field,
    given its columns cut to the rows ``positions`` selects (``None``:
    every row, and the columns themselves).
    """

    __slots__ = ()
    COLUMNS: tuple[tuple[str, str], ...] = ()
    ROW: type

    def __init__(self):
        for name, typecode in self.COLUMNS:
            setattr(self, name, array(typecode))

    @property
    def columns(self) -> list[array]:
        """The columns in ``COLUMNS`` order."""
        return [getattr(self, name) for name, _ in self.COLUMNS]

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[0][0]))

    def _row(self, position: int):
        """Row ``position`` (in range): each column read at it, as a
        one-value column for ``_fields``."""
        fields = self._fields(
            [(column[position],) for column in self.columns],
            slice(position, position + 1),
        )
        return tuple.__new__(self.ROW, next(zip(*fields)))

    #: the table's :class:`RowView`
    rows = property(RowView)


def save_jsonl(path: str | Path, kind: str, header: dict, rows) -> None:
    """Write ``{"kind": kind, **header}`` as the first line, then each
    row of ``rows`` (dicts) as one JSON object a line."""
    dumps = json.dumps
    with Path(path).open("w") as fh:
        write = fh.write
        write(dumps({"kind": kind, **header}) + "\n")
        for row in rows:
            write(dumps(row) + "\n")


def load_jsonl(path: str | Path, kind: str, start):
    """Read a file :func:`save_jsonl` wrote and return what it holds.

    ``start(header)`` returns that object and the callable that takes
    each row; blank lines are skipped.  A header of another kind, a line
    that is not a JSON object, or a header or row that ``start`` or the
    row callable rejects (a missing key, a wrong type, a value out of
    range) raises ``ValueError`` naming ``path:line``; a file that
    cannot be opened raises ``OSError``.
    """
    path = Path(path)
    with path.open() as fh:
        number = 1
        try:
            header = _parse_object(fh.readline())
            if header.get("kind") != kind:
                raise ValueError(f"not a {kind} file")
            loaded, append = start(header)
            for number, line in enumerate(fh, start=2):
                if line.strip():
                    append(_parse_object(line))
        except KeyError as exc:
            raise ValueError(f"{path}:{number}: lacks {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return loaded


def typed_values(row: dict, schema) -> list:
    """``row``'s values at the keys of ``schema``, ``(key, types)`` pairs,
    in order: a missing key raises ``KeyError``, a value whose exact type
    is not in ``types`` (``bool`` is not an ``int``) ``TypeError``."""
    values = [row[key] for key, _ in schema]
    for (key, types), value in zip(schema, values):
        if type(value) not in types:
            raise TypeError(f"{key!r} is {type(value).__name__}: {value!r}")
    return values


def _parse_object(line: str) -> dict:
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"not a JSON object: {line.strip()[:80]!r}")
    return value
