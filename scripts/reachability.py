#!/usr/bin/env python3
"""Function reachability of ``repro`` under the drivers the project owns.

Runs three drivers with a profile hook installed in every Python process
they start (suite children, spawn workers and the ``serve`` child
included), records the first call of every function under
``src/repro``, and lists each function none of them called:

1. ``benchmarks/suite/run.py --smoke``: every workload, traced and
   untraced;
2. ``pytest benchmarks --benchmark-disable``: the paper's regenerators
   and the scorecard;
3. one call of every CLI leaf command, plus every option that reads or
   writes a file.

Tests and ``examples/`` are not drivers.  Usage::

    python scripts/reachability.py           # rewrite docs/reachability.md
    python scripts/reachability.py --check   # exit 1 on an unowned one

The report is a ledger: a function it listed as unreached that has since
left the tree keeps its row, marked *deleted*, with the span it had.
Every other unreached function must match a rule of :data:`OWNERS`;
``--check`` fails when one does not, when the committed report does
not list it as owned, or when an owner cites a ROADMAP item that is no
longer under its Open items.  Stdlib only (``coverage`` is not required).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REPORT = ROOT / "docs" / "reachability.md"
ROADMAP = ROOT / "ROADMAP.md"

SUITE = "the frozen suite patches it by name (`benchmarks/suite/layers.py`)"
SAFETY = "safety: decodes or validates bytes or files from outside the program"
CALLER = "reached from kept code on a path no driver takes: "
VALUE = "value-type protocol of a kept type"
TWIN = ("null twin: reached by sites guarded on `telemetry.enabled` when "
        "one pillar is off")
EXAMPLE = "an example calls it, and every example must keep running: "

#: What stays although no driver runs it, as (module, qualname pattern,
#: owner).  ``module`` is relative to ``src/repro``; the pattern is a
#: full-match regex over the qualname.  First match wins.
OWNERS: list[tuple[str, str, str]] = [
    # names benchmarks/suite/layers.py patches
    ("netsim/network.py", r"SimNetwork\.round_trip", SUITE),
    ("netsim/sched.py", r"EventKernel\.(run|run_until|step)", SUITE),
    ("resolvers/resolver.py", r"RecursiveResolver\.resolve", SUITE),
    ("resolvers/base.py", r"ServerSelector\.(select|on_response|on_timeout)", SUITE),
    ("resolvers/infracache.py",
     r"InfrastructureCache\.(get|stale_entry|observe_rtt|observe_timeout|decay)",
     SUITE),
    # safety code
    ("dns/rdata.py", r".*", SAFETY + " (every RDATA type's wire and "
     "master-file codec)"),
    ("dns/errors.py", r"ZoneFileSyntaxError\.__init__", SAFETY),
    ("dns/zone.py", r"Zone\._chase_cname", SAFETY + " (CNAMEs of user zone files)"),
    ("netsim/faults.py", r"SiteWithdrawal\.__post_init__", SAFETY
     + " (scenario files)"),
    ("telemetry/events.py", r"RawEvent\.(kind|to_record)", SAFETY
     + " (records of a newer log version)"),
    # ROADMAP-named owners
    ("resolvers/forwarder.py", r".*", "ROADMAP item 2(d): the response-"
     "validation contract tested through `DnsForwarder`"),
    ("atlas/public.py", r".*", "the parked public-resolver / ECS scenario family"),
    ("atlas/catchment.py", r".*", "the catchment study (§3.1 CHAOS / NSID)"),
    ("dns/server.py", r"AuthoritativeServer\._answer_chaos",
     "the catchment study (§3.1 CHAOS / NSID)"),
    ("analysis/preference.py",
     r"analyze_strengthening|StrengtheningResult\..*", "§4.3 analysis"),
    ("telemetry/events.py", r"ViewComparisonEvent\.to_record", "§3.1 analysis"),
    ("analysis/stats.py", r"bootstrap_ci", "ROADMAP item 5: per-claim "
     "seed-spread intervals"),
    # reached from kept code on a path no driver takes
    ("dns/message.py", r"Message\.request_nsid", CALLER + "NSID probes"),
    ("dns/server.py", r"build_axfr_response", CALLER + "AXFR over TCP"),
    ("dns/message.py", r"Message\._truncated", CALLER + "a UDP answer whose "
     "question alone overruns"),
    ("netsim/adversary.py", r"water_torture_label", CALLER + "water-torture "
     "profiles"),
    ("netsim/faults.py", r"LossRate\.rate_at|FaultPlan\.pair_draw", CALLER
     + "loss ramps and probabilistic faults"),
    ("netsim/network.py", r"SimNetwork\.knows", CALLER + "referrals"),
    ("passive/generator.py", r"_no_handler", CALLER + "passive sites, which "
     "are never delivered to"),
    ("telemetry/registry.py",
     r"MetricsRegistry\.gauge|Gauge\..*|_GaugeChild\..*|_Family\._new_child",
     CALLER + "drop gauges, set only when telemetry loses data"),
    ("telemetry/events.py", r"iter_raw_records", CALLER
     + "`EventLogWriter.iter_records`"),
    # null twins
    ("telemetry/bundle.py",
     r"_NullChild\..*|NullRegistry\..*|NullProfiler\..*|NullTracer\..*|"
     r"_NullSpan\..*", TWIN),
    # examples
    ("dns/listener.py", r"Listener\.(start|stop|__enter__|__exit__)",
     "tests and `examples/quickstart.py` run the loop in-process; `stop` "
     "is the only end of `serve_forever` without a query limit"),
    ("passive/trace.py", r"load_trace|_open_trace|Trace\.append(_dict)?", EXAMPLE
     + "`examples/passive_analysis.py`"),
    ("telemetry/tracing.py", r"Tracer\.traces", EXAMPLE
     + "`examples/fault_detection_study.py`"),
    # value-type protocol
    ("__init__.py", r"_lazy_exports\.<locals>\.__dir__", VALUE
     + ": `dir()` of a package root lists the names it has not loaded"),
    ("core/columns.py", r"RowView\..*|ColumnTable\._row", VALUE
     + ": the row-object view of both columnar tables"),
    ("core/store.py", r"ObservationStore\.(extend|probe_count|__repr__)|"
     r"MeasurementRun\..*", VALUE
     + ": the row-object path of the columnar store"),
    ("dns/message.py", r"Question\.to_wire|Message\.question", VALUE),
    ("dns/name.py", r".*", VALUE + " (`Name` algebra and ordering)"),
    ("dns/records.py", r".*", VALUE),
    ("dns/zone.py", r"Zone\.get_rrset", VALUE),
    ("netsim/adversary.py", r"AttackProfile\.(to_dict|save)", VALUE
     + ": the writer beside `load_profile`, the API's way to write a "
     "profile file"),
    ("netsim/clock.py", r".*", VALUE),
    ("netsim/faults.py", r"FaultPlan\.(addresses|__repr__)", VALUE),
    ("netsim/faults.py", r"FaultEvent\.to_record|Scenario\.(to_dict|save)", VALUE
     + ": the writer beside `load_scenario`, the API's way to write a "
     "scenario file"),
    ("netsim/geo.py", r".*", VALUE),
    ("netsim/network.py", r"SimNetwork\.(unregister|addresses)", VALUE),
    ("netsim/sched.py", r"EventKernel\.__repr__", VALUE),
    ("resolvers/base.py", r"ServerSelector\.__repr__", VALUE),
    ("resolvers/infracache.py", r".*", VALUE),
    ("resolvers/rrcache.py", r".*", VALUE),
    ("telemetry/bundle.py", r"Telemetry\.__repr__", VALUE),
    ("telemetry/clock.py", r"Clock\.now", VALUE + " (the `Clock` protocol)"),
    ("telemetry/costs.py", r"CostLedger\.__repr__", VALUE),
    ("telemetry/events.py", r"EventLogWriter\..*|EventLog\..*", VALUE),
    ("telemetry/registry.py", r".*", VALUE),
    ("telemetry/slo.py", r"SLO\.to_dict", VALUE + " (pairs `SLO.from_dict`)"),
    ("telemetry/tracing.py", r"Span\..*", VALUE),
]

#: installed as ``sitecustomize`` on every driver process's path.  One
#: line per first call, written straight to an append-only file: a
#: process killed by a signal (the suite stops ``serve`` with SIGTERM)
#: loses nothing.
HOOK = """\
import os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()
_fd = []


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_PREFIX):
        if not _fd:
            _fd.append(os.open(
                os.path.join(_OUT, "%d.calls" % os.getpid()),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            ))
        os.write(_fd[0], ("%s\\t%d\\n" % (
            code.co_filename, code.co_firstlineno)).encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
"""


@dataclass(frozen=True)
class Function:
    module: str            # path relative to src/repro
    qualname: str
    first: int             # first decorator or ``def`` line (co_firstlineno)
    last: int
    enclosing: str | None  # qualname of the enclosing function, if nested

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(module: str, source: str) -> list[Function]:
    """Every ``def`` in ``source``, methods and nested ones included."""
    found: list[Function] = []

    def visit(node, prefix: str, enclosing: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(
                    Function(module, qualname, first, child.end_lineno, enclosing)
                )
                visit(child, qualname + ".<locals>.", qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(source), "", None)
    return found


def tree_functions() -> list[Function]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += functions(str(path.relative_to(PACKAGE)), path.read_text())
    return found


def owner_of(function: Function) -> str | None:
    for module, pattern, owner in OWNERS:
        if module == function.module and re.fullmatch(pattern, function.qualname):
            return owner
    return None


# -- drivers ----------------------------------------------------------------


def _cli_commands() -> list[list[str]]:
    """One call per leaf command, plus each option that reads or writes a file."""
    campaign = ["--probes", "30", "--interval", "2", "--duration", "10", "--seed", "1"]
    return [
        ["combos"],
        ["--output", "run.txt", "run", "--combo", "2C", *campaign,
         "--out", "run.jsonl", "--events", "run.events.jsonl",
         "--heartbeat-every", "2"],
        ["--quiet", "run", *campaign, "--ipv6", "--workers", "2",
         "--spill-events", "spill", "--events", "sharded.events.jsonl",
         "--scenario", "ns-outage", "--heartbeat-every", "1", "--no-analyze"],
        ["analyze", "--run", "run.jsonl", "--sites", "FRA", "SYD", "--combo", "2C"],
        ["metrics", "run.events.jsonl"],
        ["metrics", "sharded.events.jsonl", "--format", "json"],
        ["forensics", "run.events.jsonl"],
        ["forensics", "run.events.jsonl", "probe-1"],
        ["slo", "sharded.events.jsonl", "--check"],
        ["slo", "run.events.jsonl", "--spec", "slo.json"],
        ["top", "run.events.jsonl"],
        ["top", "sharded.events.jsonl", "--follow", "--refresh", "0.1",
         "--idle-timeout", "1", "--max-frames", "2"],
        ["costs", "run.events.jsonl", "--export", "costs.json"],
        ["costs", "sharded.events.jsonl"],
        ["bench-history", "--dir", "history", "--record", "suite.out",
         "--metrics", "dns.,netsim.", "--last", "3"],
        ["sweep", "--probes", "20", "--intervals", "2", "5"],
        ["passive", "--recursives", "30", "--min-queries", "20",
         "--out", "trace.jsonl"],
        ["passive", "--kind", "nl", "--recursives", "30", "--min-queries", "20"],
        ["--quiet", "scorecard", "--probes", "40", "--recursives", "40"],
        ["plan", "--clients", "50"],
        ["faults", "--duration", "10"],
        ["--quiet", "run", *campaign, "--scenario", "scenario.json"],
        ["attack"],
        ["--quiet", "run", *campaign, "--attack", "attack.json",
         "--out", "attack.jsonl", "--events", "attack.events.jsonl",
         "--no-analyze"],
        ["--quiet", "run", *campaign, "--scenario", "ns-outage",
         "--attack", "attack.json", "--workers", "2",
         "--spill-events", "attack-spill", "--no-analyze"],
    ]


def _serve_and_dig(env: dict, work: Path, log) -> None:
    """``serve`` a zone file in a child, ``dig`` it over UDP and TCP."""
    (work / "t.zone").write_text(
        "$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
        "@ IN NS ns1\nns1 IN A 192.0.2.1\nt IN TXT \"reach\"\n"
    )
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--zone", "t.zone",
         "--origin", "example.test.", "--port", "0", "--server-id", "reach",
         "--max-queries", "2"],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
    )
    line = server.stdout.readline()
    port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1]
    for transport in ([], ["--tcp"]):
        _run([sys.executable, "-m", "repro", "dig", "127.0.0.1",
              "t.example.test.", "TXT", "-p", port, *transport], work, env, log)
    server.communicate(timeout=60)


def _run(command: list[str], cwd: Path, env: dict, log) -> int:
    log.write(f"$ {' '.join(command)}\n")
    log.flush()
    started = time.perf_counter()
    code = subprocess.run(command, cwd=cwd, env=env, stdout=log, stderr=log).returncode
    status = f"[exit {code}, {time.perf_counter() - started:.1f}s]"
    log.write(status + "\n")
    log.flush()
    print(status, " ".join(command[1:]), flush=True)
    return code


def run_drivers(calls: Path, log) -> set[tuple[str, int]]:
    """Run the three drivers under the hook; the (file, line) of every
    function that was called."""
    hook = calls / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        HOOK.format(prefix=str(PACKAGE) + os.sep, out=str(calls))
    )
    env = dict(
        os.environ, PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]),
    )
    python = sys.executable
    # A failed suite or regenerator run would report what it skipped as
    # unreached; the CLI leaves may exit 1 on purpose (`slo --check`).
    for command in (
        [python, "benchmarks/suite/run.py", "--smoke"],
        [python, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
    ):
        if _run(command, ROOT, env, log):
            raise SystemExit(f"driver failed: {' '.join(command[1:])}")

    work = calls / "cli"
    work.mkdir()
    (work / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (work / "history").mkdir()
    newest = sorted((ROOT / "benchmarks" / "history").glob("*.json"))[-1]
    (work / "suite.out").write_text(json.dumps(json.loads(newest.read_text())) + "\n")
    (work / "slo.json").write_text(json.dumps(
        [{"name": "answers", "kind": "answer_rate", "objective": 0.9}]
    ))
    (work / "scenario.json").write_text(json.dumps(
        {"kind": "repro-fault-scenario", "version": 1, "name": "ns1-dark",
         "events": [{"kind": "ns_outage", "target": "ns1",
                     "start": 200.0, "end": 400.0}]}
    ))
    (work / "attack.json").write_text(json.dumps(
        {"kind": "repro-attack-profile", "version": 1, "name": "nxns-capped",
         "vector": "nxns", "bot_share": 0.2, "fan_out": 4, "max_fetch": 3,
         "max_fetch_per_delegation": 2, "rrl_qps": 2}
    ))
    for command in _cli_commands():
        _run([python, "-m", "repro", *command], work, env, log)
    _serve_and_dig(env, work, log)

    called = set()
    for path in calls.glob("*.calls"):
        for line in path.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            called.add((filename, int(first)))
    return called


def unreached(called: set[tuple[str, int]]) -> tuple[list[Function], list[Function]]:
    """All functions of the tree, and the outermost unreached ones (a
    function nested in an unreached one is counted with it)."""
    every = tree_functions()
    ran = {
        (f.module, f.qualname) for f in every
        if (str(PACKAGE / f.module), f.first) in called
    }
    missed = [
        f for f in every
        if (f.module, f.qualname) not in ran
        and (f.enclosing is None or (f.module, f.enclosing) in ran)
    ]
    return every, missed


# -- the report -------------------------------------------------------------

_MODULE = re.compile(r"^## `(?P<module>[^`]+)`$")
_ROW = re.compile(
    r"^\| `(?P<qualname>[^`]+)` \| (?P<first>\d+)–(?P<last>\d+) \| (?P<status>.+) \|$"
)
_TOTALS = re.compile(r"^\| (?P<label>audit start|now) \| (?P<cells>.+) \|$")


def parse_report(text: str):
    """(rows by (module, qualname) -> (first, last, status), audit-start cells)."""
    rows, start, module = {}, None, None
    for line in text.splitlines():
        if match := _MODULE.match(line):
            module = match["module"]
        elif (match := _ROW.match(line)) and module:
            rows[module, match["qualname"]] = (
                int(match["first"]), int(match["last"]), match["status"]
            )
        elif (match := _TOTALS.match(line)) and match["label"] == "audit start":
            start = match["cells"]
    return rows, start


def _totals(every: list[Function], missed: list[Function]) -> str:
    outer = [f for f in every if f.enclosing is None]
    return (
        f"{len(every)} | {sum(f.lines for f in outer)} | "
        f"{len(missed)} | {sum(f.lines for f in missed)}"
    )


def render(every: list[Function], missed: list[Function], previous: str) -> str:
    old_rows, start = parse_report(previous)
    present = {(f.module, f.qualname) for f in every}
    rows = {
        key: (first, last, "deleted")
        for key, (first, last, status) in old_rows.items()
        if key not in present
    }
    for f in missed:
        owner = owner_of(f)
        rows[f.module, f.qualname] = (
            f.first, f.last, f"owned: {owner}" if owner else "UNOWNED"
        )
    now = _totals(every, missed)
    lines = [
        "# Function reachability",
        "",
        "Generated by `python scripts/reachability.py`; CI runs it with",
        "`--check`. It records which functions under `src/repro` run under",
        "the three drivers the project owns: the benchmark suite's smoke run",
        "(traced and untraced), `pytest benchmarks --benchmark-disable` (the",
        "paper's regenerators and the scorecard), and one call of every CLI",
        "leaf command plus every option that reads or writes a file. Tests",
        "and `examples/` are not drivers. Every unreached function is either",
        "deleted (its row keeps the span it had) or names its owner.",
        "",
        "What stays although unreached:",
        "",
        "- **Names the frozen suite patches by name.** `benchmarks/suite/layers.py`",
        "  reads `owner.__dict__[attr]`, so deleting one is a `KeyError` in every",
        "  traced run: `SimNetwork.round_trip`, `EventKernel.run` / `run_until` /",
        "  `step`, `RecursiveResolver.resolve`, the selectors' `select` /",
        "  `on_response` / `on_timeout`, and `InfrastructureCache.get` /",
        "  `stale_entry` / `decay`.",
        "- **Safety code.** Anything that decodes or validates bytes or files from",
        "  outside the program: the rdata `from_wire` of every type,",
        "  `Zone._chase_cname` for user zone files, zone-file syntax errors,",
        "  listener error paths, and the `query_*` header checks.",
        "- **ROADMAP-named owners.** `resolvers/forwarder.py` (item 2(d)),",
        "  `atlas/public.py` (the parked ECS scenario family),",
        "  `atlas/catchment.py` and CHAOS (the catchment study), and the",
        "  paper-section analyses",
        "  `analyze_strengthening` (§4.3) and the `view_comparison` record",
        "  (§3.1).",
        "- **Reference implementations that a test compares against.**",
        "- **Code reached from kept code** on a path no driver takes: a",
        "  referral, a drop, a fault ramp, an AXFR.  It has a caller under `src/`.",
        "- **Null twins** (`telemetry/bundle.py`): what a site guarded on",
        "  `telemetry.enabled` reaches when one pillar is off.",
        "- **What an example calls.** `examples/` are not drivers, but every",
        "  example must keep running; tests and `examples/quickstart.py` run",
        "  the listener's loop in-process (`Listener.start` / `stop`).",
        "- **Value-type protocol of a kept type**: `__repr__`, equality,",
        "  ordering, the list protocol of a list-like view, `to_dict` beside",
        "  `from_dict`, and accessors that complete a type the program uses.",
        "",
        "| | functions | function lines | unreached functions | unreached lines |",
        "|---|---|---|---|---|",
        f"| audit start | {start or now} |",
        f"| now | {now} |",
        "",
        "Function lines count outermost functions (methods included) from",
        "their first decorator to their last line; a function nested in an",
        "unreached one is counted with it.",
    ]
    for module in sorted({module for module, _ in rows}):
        lines += ["", f"## `{module}`", "", "| function | lines | status |",
                  "|---|---|---|"]
        for (_, qualname), (first, last, status) in sorted(
            ((key, row) for key, row in rows.items() if key[0] == module),
            key=lambda item: item[1][0],
        ):
            lines.append(f"| `{qualname}` | {first}–{last} | {status} |")
    return "\n".join(lines) + "\n"


def open_items(roadmap: str) -> set[str]:
    """The numbers of the ``- **N.`` items under ROADMAP's ``## Open items``."""
    section = roadmap.partition("\n## Open items\n")[2].split("\n## ", 1)[0]
    return set(re.findall(r"^- \*\*(\d+)\.", section, re.MULTILINE))


def check(missed: list[Function], report: str, roadmap: str) -> list[str]:
    rows, _ = parse_report(report)
    items = open_items(roadmap)
    problems = [
        f"{module} {pattern}: the owner cites ROADMAP item {item}, which is "
        f"not under Open items"
        for module, pattern, owner in OWNERS
        for item in re.findall(r"ROADMAP item (\d+)", owner)
        if item not in items
    ]
    for f in missed:
        where = f"{f.module}:{f.first} {f.qualname}"
        if owner_of(f) is None:
            problems.append(f"{where}: unreached, not deleted and no owner")
        elif not rows.get((f.module, f.qualname), (0, 0, ""))[2].startswith("owned: "):
            problems.append(f"{where}: unreached and owned, but not listed in "
                            f"{REPORT.relative_to(ROOT)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail on an unreached function that is neither deleted nor "
        "listed as owned in the committed report, or on an owner citing a "
        "ROADMAP item no longer open; write nothing",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        calls = Path(scratch)
        with open(calls / "drivers.log", "w") as log:
            called = run_drivers(calls, log)
        every, missed = unreached(called)
        if not called:
            sys.stdout.write((calls / "drivers.log").read_text())
            print("no function was recorded; the drivers did not run")
            return 1
    previous = REPORT.read_text() if REPORT.exists() else ""
    if args.check:
        problems = check(missed, previous, ROADMAP.read_text())
        for problem in problems:
            print(problem)
        print(f"{len(missed)} unreached functions, {len(problems)} problems")
        return 1 if problems else 0
    REPORT.write_text(render(every, missed, previous))
    print(f"wrote {REPORT.relative_to(ROOT)}: {len(missed)} unreached functions, "
          f"{sum(owner_of(f) is None for f in missed)} without an owner")
    return 0


if __name__ == "__main__":
    sys.exit(main())
