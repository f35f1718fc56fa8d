"""Bench trajectory: an append-only record of the benchmark suite's output.

``python3 benchmarks/suite/run.py`` ends with one JSON line: ``correct``
and every end-to-end and per-layer metric of every workload.  A recorded
run stores that line verbatim as one entry in ``benchmarks/history/``
(append-only: entries are never rewritten, a new run takes the next
sequence number)::

    {"schema": "repro-bench-history/2", "seq": 8,
     "recorded_at": "2026-10-02T12:00:00Z", "git_commit": "...",
     "correct": true, "end_to_end": {workload: {metric: value}},
     "per_layer": {workload: {metric: value}}}

``repro-dns bench-history`` renders the trend and names the entry at
which an end-to-end metric got worse than in the entry before it by more
than the bound ``BENCHMARK.json`` fixes for that metric.  Entries written
by the retired sidecar harness (schema ``/1``) stay on disk; they hold
another system's phases, so they are counted and not rendered.
"""

from __future__ import annotations

import json
import re
import subprocess
import time
from pathlib import Path

#: entry schema; bump on incompatible change.
HISTORY_SCHEMA = "repro-bench-history/2"
_RETIRED_SCHEMA = "repro-bench-history/1"

_ENTRY_NAME = re.compile(r"^(?P<seq>\d{4})-(?P<commit>[0-9a-z]+|unknown)\.json$")


class HistoryError(ValueError):
    """No readable bench history, suite output or benchmark declaration."""


def load_spec(path: str | Path = "BENCHMARK.json") -> dict:
    """The benchmark declaration: workloads, metric units, directions, bounds."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise HistoryError(f"{path}: no benchmark declaration ({exc})") from None


def git_commit() -> str:
    """``git rev-parse HEAD`` here, or ``unknown`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return (out.returncode == 0 and out.stdout.strip()) or "unknown"


def parse_suite_output(text: str) -> dict:
    """The result object a full suite run printed as its last line."""
    last = next((line for line in reversed(text.splitlines()) if line.strip()), "")
    try:
        result = json.loads(last)
    except json.JSONDecodeError as exc:
        raise HistoryError(f"suite output: last line is not JSON ({exc})") from None
    if not isinstance(result, dict) or not all(
        isinstance(result.get(section), dict) for section in ("end_to_end", "per_layer")
    ):
        raise HistoryError("suite output: last line is not a full run's result object")
    if result.get("correct") is not True:
        raise HistoryError("suite output: the run failed its own checks; not recorded")
    return result


def append_entry(directory: str | Path, result: dict, commit: str) -> Path:
    """Append the suite's ``result`` as the next history entry; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    matches = (_ENTRY_NAME.match(path.name) for path in directory.glob("*.json"))
    seq = 1 + max((int(match.group("seq")) for match in matches if match), default=0)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entry = {**result, "schema": HISTORY_SCHEMA, "seq": seq,
             "recorded_at": stamp, "git_commit": commit}
    path = directory / f"{seq:04d}-{commit[:12]}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_history(directory: str | Path) -> tuple[list[dict], int]:
    """Entries by sequence number, and the count of retired-schema files skipped."""
    directory = Path(directory)
    if not directory.is_dir():
        raise HistoryError(f"{directory}: no such history directory")
    entries, retired = [], 0
    for path in sorted(directory.glob("*.json")):
        if not _ENTRY_NAME.match(path.name):
            continue
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise HistoryError(f"{path}: not JSON ({exc})") from None
        schema = entry.get("schema") if isinstance(entry, dict) else None
        if schema == _RETIRED_SCHEMA:
            retired += 1
        elif schema == HISTORY_SCHEMA:
            entries.append(entry)
        else:
            raise HistoryError(f"{path}: entry schema {schema!r} != {HISTORY_SCHEMA!r}")
    entries.sort(key=lambda entry: entry.get("seq", 0))
    return entries, retired


def _rows(spec: dict, entries: list[dict], metrics: list[str] | None):
    """(label, metric declaration, per-entry values) of each selected metric:
    the end-to-end ones, or every one whose name starts with a ``metrics`` prefix."""
    for workload in (row["name"] for row in spec["workloads"]):
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                name = metric["name"]
                if metrics is None:
                    selected = kind == "end_to_end"
                else:
                    selected = name.startswith(tuple(metrics))
                if selected:
                    yield f"{workload} {name}", metric, [
                        ((entry.get(kind) or {}).get(workload) or {}).get(name)
                        for entry in entries
                    ]


def _cell(value: float | None) -> str:
    """Four significant digits, no exponent for the large ones."""
    if value is None:
        return "-"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def attribute_regressions(entries: list[dict], spec: dict) -> list[str]:
    """One line per end-to-end metric that got worse than in the entry before
    by more than its bound, in the direction ``better`` says, naming the entry."""
    findings = []
    rows = list(_rows(spec, entries, None))
    for index, entry in enumerate(entries[1:]):
        for label, metric, values in rows:
            before, after = values[index], values[index + 1]
            if not before or after is None:
                continue
            worse = (after / before - 1.0) * (-1 if metric["better"] == "higher" else 1)
            if worse > metric["bound"]:
                findings.append(
                    f"  entry #{entry.get('seq')} "
                    f"({(entry.get('git_commit') or 'unknown')[:12]}): {label} "
                    f"{_cell(before)} -> {_cell(after)} {metric['unit']} "
                    f"({worse:.0%} worse, bound {metric['bound']:.0%})"
                )
    return findings


def render_history(
    entries: list[dict], spec: dict, metrics: list[str] | None = None,
    last: int = 8, retired: int = 0,
) -> str:
    """Trend table over the last ``last`` entries plus attribution."""
    note = (
        f" ({retired} earlier entr{'y' if retired == 1 else 'ies'} in the "
        "retired sidecar schema not shown)"
    ) if retired else ""
    if not entries:
        return f"bench history: no entries{note}"
    window = entries[-last:]
    header = f"{'workload / metric':<58} {'unit':<8}" + "".join(
        f" {'#' + str(entry.get('seq')):>10}" for entry in window
    )
    commits = f"{'':<67}" + "".join(
        f" {(entry.get('git_commit') or 'unknown')[:9]:>10}" for entry in window
    )
    lines = [f"=== Bench trajectory — {len(entries)} entries{note} ===", "",
             header, commits, "-" * len(header)]
    for label, metric, values in _rows(spec, window, metrics):
        cells = "".join(f" {_cell(value):>10}" for value in values)
        present = [value for value in values if value is not None]
        if len(present) >= 2 and present[0] > 0:
            cells += f"  ({present[-1] / present[0]:.2f}x)"
        lines.append(f"{label:<58} {metric['unit']:<8}{cells}")
    findings = attribute_regressions(entries, spec)
    lines += ["", "Regression attribution (end-to-end bounds of BENCHMARK.json)"
              + ("" if findings else ": nothing got worse beyond its bound")]
    return "\n".join(lines + findings)


__all__ = [
    "HISTORY_SCHEMA", "HistoryError", "append_entry", "attribute_regressions",
    "git_commit", "load_history", "load_spec", "parse_suite_output", "render_history",
]
