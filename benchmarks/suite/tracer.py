"""In-memory span tracer wrapped around each layer's public functions.

The traced run of a workload replaces the public methods listed in
:mod:`layers` with span-recording wrappers.  A span is one row in six
parallel columns (name, parent, start, duration, self time, flags);
``parent`` is the enclosing span on the call stack; rows are allocated
at call *entry*, so a span's subtree is the contiguous index range that
follows it and parents always precede children.  Nothing is aggregated
or written while the program runs — the hot wrapper only appends and
assigns — and everything the report needs (calls, self time, edge
counts, hit ratios) is derived from the columns afterwards.

Self time is ``duration − Σ child durations``.  A wrapper's own
bookkeeping inside its two clock reads lands in the span's self time
and the rest in its *parent's*, which would make layers that make many
cheap wrapped calls read far too high (a BIND selection reads thirteen
infrastructure-cache entries).  :func:`calibrate` measures both parts
on a no-op, and *net* self time subtracts them per call made and per
child called; raw self times still partition the traced phase exactly.
``trace_overhead_ratio`` (traced ÷ untraced wall) reports what tracing
cost in total; end-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from bisect import bisect_right
from collections import Counter
from pathlib import Path

#: flag bits of the ``flags`` column
RAISED, RETURNED_VALUE = 1, 2

#: spans written to the trace file (aggregates always cover every span)
MAX_SPANS_WRITTEN = 200_000


class Stat:
    """Aggregate of one span name over an index range."""

    __slots__ = (
        "calls", "self_ns", "total_ns", "raised", "returned_value", "children",
    )

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = 0
        self.raised = self.returned_value = self.children = 0

    def net_ns(self, inner_ns: float, outer_ns: float) -> float:
        """Self time less the tracer's own cost (see :func:`calibrate`)."""
        return max(
            0.0, self.self_ns - inner_ns * self.calls - outer_ns * self.children
        )


class Tracer:
    def __init__(self):
        #: span name by id, ``"<layer>:<function>"``
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._callback_ids: dict[object, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start_ns = array("q")
        self.dur_ns = array("q")
        self.self_ns = array("q")
        self.flags = array("b")
        #: open spans, innermost last: ``[index, child_ns]``
        self._stack: list[list[int]] = []

    # -- naming ------------------------------------------------------------

    def name_id(self, layer: str, function: str) -> int:
        key = f"{layer}:{function}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    # -- recording ---------------------------------------------------------

    def _span_fn(self, fn, nid: int):
        """``fn`` with every call recorded as a span named ``nid``."""
        name_col, parent_col = self.name, self.parent
        start_col, dur_col = self.start_ns, self.dur_ns
        self_col, flag_col = self.self_ns, self.flags
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1][0] if stack else -1)
            start_col.append(0)
            dur_col.append(0)
            self_col.append(0)
            flag_col.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if result is not None:
                    flag_col[index] = RETURNED_VALUE
                return result
            except BaseException:
                flag_col[index] = RAISED
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                start_col[index] = start
                dur_col[index] = duration
                self_col[index] = duration - frame[1]

        return traced

    def wrap(self, fn, layer: str, function: str | None = None):
        traced = self._span_fn(fn, self.name_id(layer, function or fn.__name__))
        return functools.update_wrapper(traced, fn)

    def callback(self, fn):
        """Span-wrap a callback handed across a layer boundary.

        The span is named after the callback's *own* module, so work a
        resolver does inside a kernel event or a network delivery is
        billed to the resolver, not to whoever invoked the callback.
        """
        target = fn
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        # Closures and bound methods are fresh objects per call; their
        # code object is what identifies the callback.
        key = getattr(target, "__code__", target)
        nid = self._callback_ids.get(key)
        if nid is None:
            module = getattr(target, "__module__", None) or "unknown"
            function = getattr(target, "__qualname__", type(target).__name__)
            nid = self._callback_ids[key] = self.name_id(
                module.removeprefix("repro."), function.replace("<locals>.", "")
            )
        return self._span_fn(fn, nid)

    def patch(self, owner, attr: str, layer: str, callback_arg=None) -> None:
        """Replace ``owner.attr`` with its span-recording wrapper.

        ``callback_arg=(position, keyword)`` additionally span-wraps the
        callable passed in that parameter (see :meth:`callback`);
        ``position`` counts ``self``.
        """
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if callback_arg is not None:
            fn = self._swap_callback(fn, *callback_arg)
        label = f"{owner.__name__}.{attr}"
        wrapped = self.wrap(fn, layer, label)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)

    def _swap_callback(self, fn, position: int, keyword: str):
        callback = self.callback

        @functools.wraps(fn)
        def swapped(*args, **kwargs):
            if len(args) > position:
                args = (
                    args[:position]
                    + (callback(args[position]),)
                    + args[position + 1:]
                )
            elif keyword in kwargs:
                kwargs[keyword] = callback(kwargs[keyword])
            return fn(*args, **kwargs)

        return swapped

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def subtree(self, index: int) -> range:
        """Index range of span ``index`` and everything beneath it."""
        # One thread, properly nested calls, rows in start order: every
        # span that starts before ``index`` ends is beneath it.
        end_ns = self.start_ns[index] + self.dur_ns[index]
        return range(index, bisect_right(self.start_ns, end_ns, lo=index))

    def find(self, layer: str, function: str) -> list[int]:
        nid = self._ids.get(f"{layer}:{function}")
        if nid is None:
            return []
        return [i for i, value in enumerate(self.name) if value == nid]

    def aggregate(self, rows: range | None = None) -> dict[str, Stat]:
        """Per-name totals over ``rows`` (default: every span)."""
        rows = range(len(self.name)) if rows is None else rows
        stats = [Stat() for _ in self.names]
        name_col, dur_col, parent_col = self.name, self.dur_ns, self.parent
        self_col, flag_col = self.self_ns, self.flags
        first = rows.start
        for index in rows:
            stat = stats[name_col[index]]
            parent = parent_col[index]
            if parent >= first:
                stats[name_col[parent]].children += 1
            stat.calls += 1
            stat.self_ns += self_col[index]
            stat.total_ns += dur_col[index]
            flag = flag_col[index]
            if flag == RETURNED_VALUE:
                stat.returned_value += 1
            elif flag == RAISED:
                stat.raised += 1
        return {
            name: stat for name, stat in zip(self.names, stats) if stat.calls
        }

    def edges(self, rows: range | None = None) -> Counter:
        """``(parent name, child name) -> calls`` over ``rows``."""
        rows = range(len(self.name)) if rows is None else rows
        names, name_col, parents = self.names, self.name, self.parent
        out: Counter = Counter()
        for index in rows:
            parent = parents[index]
            out[
                names[name_col[parent]] if parent >= 0 else "",
                names[name_col[index]],
            ] += 1
        return out

    def parents_with_child(self, parent_name: str, child_name: str) -> int:
        """How many ``parent_name`` spans have ≥ 1 direct ``child_name`` child."""
        parent_id = self._ids.get(parent_name)
        child_id = self._ids.get(child_name)
        if parent_id is None or child_id is None:
            return 0
        name_col, parents = self.name, self.parent
        return len({
            parents[index]
            for index, value in enumerate(name_col)
            if value == child_id
            and parents[index] >= 0
            and name_col[parents[index]] == parent_id
        })

    # -- writing -----------------------------------------------------------

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Dump aggregates plus the first ``MAX_SPANS_WRITTEN`` span rows."""
        kept = min(len(self.name), MAX_SPANS_WRITTEN)
        document = {
            "schema": 1,
            "clock": "perf_counter_ns",
            "names": self.names,
            "spans_total": len(self.name),
            "spans_written": kept,
            "aggregate": {
                name: {
                    "calls": stat.calls,
                    "self_ns": stat.self_ns,
                    "total_ns": stat.total_ns,
                    "raised": stat.raised,
                    "returned_value": stat.returned_value,
                }
                for name, stat in self.aggregate().items()
            },
            "spans": {
                "name": self.name[:kept].tolist(),
                "parent": self.parent[:kept].tolist(),
                "start_ns": self.start_ns[:kept].tolist(),
                "dur_ns": self.dur_ns[:kept].tolist(),
                "self_ns": self.self_ns[:kept].tolist(),
                "flags": self.flags[:kept].tolist(),
            },
        }
        if extra:
            document.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(document, fh, separators=(",", ":"))


def calibrate(samples: int = 20_000) -> tuple[float, float]:
    """The tracer's own cost per span: ``(inner_ns, outer_ns)``.

    ``inner`` is what a span of a no-op measures (billed to the span
    itself); ``outer`` is what the caller additionally sees per wrapped
    call (billed to the parent's self time).
    """
    scratch = Tracer()
    noop = scratch.wrap(lambda: None, "calibration", "noop")

    def loop() -> None:
        for _ in range(samples):
            noop()

    scratch.wrap(loop, "calibration", "root")()
    inside = sum(scratch.dur_ns[1:])
    return inside / samples, (scratch.dur_ns[0] - inside) / samples
