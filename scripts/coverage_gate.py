#!/usr/bin/env python3
"""Coverage gate for the failure-path packages.

Runs the tier-1 test suite with line coverage scoped to the packages
whose failure behaviour this repo's tests exist to pin down —
``repro.netsim`` and ``repro.resolvers`` — and fails if either package
drops below its committed floor.

Uses `coverage.py <https://coverage.readthedocs.io>`_ when it is
importable (CI installs it); otherwise falls back to a stdlib
``sys.settrace`` tracer so the gate also runs in environments where
nothing may be installed.  The fallback traces the main process only
and counts executable lines straight off the compiled code objects, so
its percentages differ slightly from coverage.py's statement analysis;
the floors carry enough margin for either tool.

Usage:  python scripts/coverage_gate.py [--out report.txt] [pytest args]
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: package name -> directory (or single module) whose .py files are gated.
GATED = {
    "repro.netsim": SRC / "repro" / "netsim",
    "repro.resolvers": SRC / "repro" / "resolvers",
    "repro.telemetry": SRC / "repro" / "telemetry",
    # Gated on its own, beyond the package floor: the ledger's numbers
    # are the per-event cost baseline the DES kernel is judged against,
    # so its counting/merge paths must stay pinned by tests.
    "repro.telemetry.costs": SRC / "repro" / "telemetry" / "costs.py",
    # The columnar data plane every campaign flows through: append,
    # merge, canonical sort, and the row view must stay pinned — a
    # silent column skew corrupts every export downstream.
    "repro.core.store": SRC / "repro" / "core" / "store.py",
    # The authoritative-side attack mitigation: slip/drop decisions
    # feed the adversarial-campaign determinism contract, so window
    # math and bucket accounting must stay pinned by tests.
    "repro.dns.rrl": SRC / "repro" / "dns" / "rrl.py",
    # The authoritative answer path and its codec: every response byte
    # comes out of these three modules, and their record / wire caches
    # must stay pinned by the corpus digest and the zone-version property.
    "repro.dns.server": SRC / "repro" / "dns" / "server.py",
    "repro.dns.message": SRC / "repro" / "dns" / "message.py",
    "repro.dns.records": SRC / "repro" / "dns" / "records.py",
    # The one socket front end: `repro serve` and every real-socket test
    # go through its loop, so its error and framing paths stay pinned.
    "repro.dns.listener": SRC / "repro" / "dns" / "listener.py",
}

#: committed line-coverage floors (percent).  Measured at the PR that
#: introduced the gate minus ~4 points of margin for tool drift; raise
#: them when new tests land, never lower them to make a PR pass.
FLOORS = {
    "repro.netsim": 91.0,  # 95.6% (settrace) after the reachability audit
    "repro.resolvers": 94.0,  # 98.0% (settrace) after the reachability audit
    "repro.telemetry": 93.0,  # 97.0% (settrace) after the reachability audit
    "repro.telemetry.costs": 95.0,  # 99.2% (settrace) after the reachability audit
    "repro.core.store": 90.0,  # 98%+ measured when the store landed
    "repro.dns.rrl": 90.0,  # 100% measured when the edge tests landed
    "repro.dns.server": 95.0,  # 98.2% measured when the record caches landed
    "repro.dns.message": 95.0,  # 98.4% measured when the record caches landed
    "repro.dns.records": 100.0,  # 100% measured when the record caches landed
    "repro.dns.listener": 90.0,  # measured when the one-loop listener landed
}


def gated_files() -> dict[str, list[Path]]:
    return {
        package: (
            [target] if target.is_file() else sorted(target.rglob("*.py"))
        )
        for package, target in GATED.items()
    }


def executable_lines(path: Path) -> set[int]:
    """Line numbers the interpreter can actually execute in ``path``."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack: list[types.CodeType] = [code]
    while stack:
        current = stack.pop()
        lines.update(
            line for _, _, line in current.co_lines() if line is not None
        )
        stack.extend(
            const
            for const in current.co_consts
            if isinstance(const, types.CodeType)
        )
    lines.discard(0)
    return lines


def run_pytest(pytest_args: list[str]) -> int:
    import pytest

    return pytest.main(pytest_args or ["-x", "-q", str(ROOT / "tests")])


def measure_with_coverage(pytest_args: list[str]):
    """Preferred path: coverage.py's statement analysis."""
    import coverage

    cov = coverage.Coverage(
        include=[
            str(target) if target.is_file() else f"{target}/*"
            for target in GATED.values()
        ],
        data_file=str(ROOT / ".coverage.gate"),
    )
    cov.start()
    try:
        exit_code = run_pytest(pytest_args)
    finally:
        cov.stop()
    results = {}
    for package, files in gated_files().items():
        statements = 0
        covered = 0
        for path in files:
            _, file_statements, _, missing, _ = cov.analysis2(str(path))
            statements += len(file_statements)
            covered += len(file_statements) - len(missing)
        results[package] = (covered, statements)
    cov.erase()
    return exit_code, results, "coverage.py"


def measure_with_settrace(pytest_args: list[str]):
    """Stdlib fallback: a scoped line tracer over the main process."""
    prefixes = tuple(str(directory) for directory in GATED.values())
    hits: dict[str, set[int]] = {}

    def local_tracer(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno
            )
        return local_tracer

    def global_tracer(frame, event, arg):
        # Called once per function call: reject foreign files fast so
        # the suite stays runnable under the tracer.
        if frame.f_code.co_filename.startswith(prefixes):
            return local_tracer(frame, event, arg)
        return None

    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        exit_code = run_pytest(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    results = {}
    for package, files in gated_files().items():
        statements = 0
        covered = 0
        for path in files:
            lines = executable_lines(path)
            statements += len(lines)
            covered += len(lines & hits.get(str(path), set()))
        results[package] = (covered, statements)
    return exit_code, results, "sys.settrace"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="arguments forwarded to pytest (default: -x -q tests)",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    # The suite shells out to the example scripts; they must find the
    # package the same way this process does.
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    try:
        import coverage  # noqa: F401

        exit_code, results, tool = measure_with_coverage(args.pytest_args)
    except ImportError:
        exit_code, results, tool = measure_with_settrace(args.pytest_args)

    lines = [f"line coverage ({tool}), floors in parentheses:"]
    failed = []
    for package, (covered, statements) in sorted(results.items()):
        percent = 100.0 * covered / statements if statements else 0.0
        floor = FLOORS[package]
        verdict = "ok" if percent >= floor else "BELOW FLOOR"
        lines.append(
            f"  {package:<18} {percent:6.2f}%  ({floor:.0f}% floor, "
            f"{covered}/{statements} lines) {verdict}"
        )
        if percent < floor:
            failed.append(package)
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)

    if exit_code != 0:
        print(f"test suite failed (exit {exit_code}); coverage not gated")
        return exit_code
    if failed:
        print(f"coverage below committed floor for: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
