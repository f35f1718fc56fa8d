"""Tests for the command-line interface."""

import argparse
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

COMBOS = ["2A", "2B", "2C", "3A", "3B", "4A", "4B"]
SITES = ["DUB", "FRA", "GRU", "IAD", "NRT", "SFO", "SYD"]


def opt(default, choices=None, nargs=None, required=False):
    return (default, choices, nargs, required)


#: Every sub-command and option with its default, choices, nargs and
#: required-ness, as recorded from the commit before the shared option
#: groups (PR 17's parent), less the sidecar-diff command and
#: `bench-history`'s sidecar options, which went with the sidecar harness
#: (PR 18), less `dashboard`, `trace` and the campaign options of
#: `metrics` / `costs` / `top`, which became readers of an event log,
#: and less the fault and attack campaign leaves, which folded into
#: `run --scenario` / `--attack` (the listing leaves became `faults`
#: and `attack`).  Help text is not part of the surface.
PARSER_SURFACE = {'--log-level': opt('warning', choices=['debug', 'error', 'info', 'warning']),
 '--output': opt(None),
 '--quiet': opt(False, nargs=0),
 'analyze': {'--combo': opt('?'),
             '--run': opt(None, required=True),
             '--sites': opt(None, nargs='+', required=True)},
 'attack': {},
 'bench-history': {'--dir': opt('benchmarks/history'),
                   '--last': opt(8),
                   '--metrics': opt(None),
                   '--record': opt(None)},
 'combos': {},
 'costs': {'--export': opt(None), 'log': opt(None, required=True)},
 'dig': {'--rrclass': opt('IN'),
         '--tcp': opt(False, nargs=0),
         '--timeout': opt(3.0),
         '-p --port': opt(53),
         'name': opt(None, required=True),
         'rrtype': opt('A', nargs='?'),
         'server': opt(None, required=True)},
 'faults': {'--duration': opt(0.0)},
 'forensics': {'--top': opt(3),
               'log': opt(None, required=True),
               'selector': opt(None, nargs='?')},
 'metrics': {'--format': opt('prom', choices=['json', 'prom']),
             'log': opt(None, required=True)},
 'passive': {'--kind': opt('root', choices=['nl', 'root']),
             '--min-queries': opt(250),
             '--out': opt(None),
             '--recursives': opt(250),
             '--seed': opt(2)},
 'plan': {'--clients': opt(500),
          '--home': opt('FRA', choices=SITES),
          '--latency-share': opt(0.5),
          '--seed': opt(0),
          '--sites': opt(
              ['FRA', 'IAD', 'SYD', 'GRU'], choices=SITES, nargs='+'
          )},
 'run': {'--attack': opt(None),
         '--combo': opt('2C', choices=COMBOS),
         '--duration': opt(60.0),
         '--events': opt(None),
         '--heartbeat-every': opt(0),
         '--interval': opt(2.0),
         '--ipv6': opt(False, nargs=0),
         '--no-analyze': opt(False, nargs=0),
         '--out': opt(None),
         '--probes': opt(300),
         '--scenario': opt(None),
         '--seed': opt(0),
         '--shards': opt(0),
         '--spill-events': opt(None),
         '--workers': opt(1)},
 'scorecard': {'--probes': opt(300),
               '--recursives': opt(250),
               '--seed': opt(20170412)},
 'serve': {'--host': opt('127.0.0.1'),
           '--max-queries': opt(0),
           '--origin': opt(None, required=True),
           '--port': opt(5353),
           '--server-id': opt('repro-authoritative'),
           '--zone': opt(None, required=True)},
 'slo': {'--check': opt(False, nargs=0),
         '--slack': opt(None),
         '--spec': opt(None),
         '--window': opt(120.0),
         'log': opt(None, required=True)},
 'sweep': {'--intervals': opt([2, 5, 10, 15, 20, 30], nargs='+'),
           '--probes': opt(150),
           '--reference': opt('FRA'),
           '--seed': opt(0)},
 'top': {'--follow': opt(False, nargs=0),
         '--idle-timeout': opt(30.0),
         '--max-frames': opt(0),
         '--refresh': opt(0.2),
         'log': opt(None, required=True)}}


def parser_surface(parser):
    """``build_parser()`` as a plain dict, shaped like PARSER_SURFACE."""
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface[name] = parser_surface(sub)
            continue
        key = " ".join(action.option_strings) or action.dest
        choices = action.choices
        surface[key] = opt(
            action.default,
            sorted(choices) if choices is not None else None,
            action.nargs,
            action.required,
        )
    return surface


#: the campaigns the one campaign command runs: plain, under a fault
#: scenario, under an attack
CAMPAIGN_COMMANDS = [
    ["run"], ["run", "--scenario", "ns-outage"], ["run", "--attack", "nxns"],
]

#: (argv, flag, bad value): the campaign's numbers, then `faults`', then
#: the readers' (a log path first, which the parser rejects the value
#: before opening), then the socket commands' (before binding or sending).
BAD_NUMBERS = [
    (["run"], flag, value)
    for flag, value in [
        ("--workers", "0"),
        ("--shards", "-1"),
        ("--probes", "0"),
        ("--interval", "0"),
        ("--interval", "nan"),
        ("--interval", "inf"),
        ("--duration", "-1"),
        ("--duration", "inf"),
        ("--duration", "1e308"),  # finite minutes, infinite seconds
    ]
] + [
    (["faults"], "--duration", value) for value in ("-5", "inf", "nan")
] + [
    (["top", "run.events.jsonl"], "--refresh", "-1"),
    (["top", "run.events.jsonl"], "--refresh", "nan"),
    (["top", "run.events.jsonl"], "--refresh", "inf"),
    (["top", "run.events.jsonl"], "--idle-timeout", "-1"),
    (["top", "run.events.jsonl"], "--max-frames", "-1"),
    (["forensics", "run.events.jsonl"], "--top", "-2"),
] + [
    (["serve", "--zone", "zone", "--origin", "example"], flag, value)
    for flag, value in [
        ("--port", "-1"),
        ("--port", "70000"),
        ("--max-queries", "-1"),
    ]
] + [
    (["dig", "127.0.0.1", "t.example"], flag, value)
    for flag, value in [
        ("-p", "70000"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
    ]
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.combo == "2C"
        assert args.probes == 300
        assert not args.ipv6
        assert args.scenario is None and args.attack is None

    def test_plan_site_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--sites", "XXX"])

    @pytest.mark.parametrize(
        "command, flag, value",
        BAD_NUMBERS,
        ids=[
            f"{flag}-{value}-{' '.join(c for c in command if '.' not in c)}"
            for command, flag, value in BAD_NUMBERS
        ],
    )
    def test_bad_campaign_numbers_are_usage_errors(
        self, capsys, command, flag, value
    ):
        # Each of these used to get past the parser and either die in a
        # traceback (ValueError, ZeroDivisionError; `top --refresh -1`
        # from time.sleep) or be ignored (`forensics --top -2` dropped
        # the exemplar section; `serve --port 70000` an OverflowError,
        # `serve --max-queries -1` served nothing, `dig -p 70000` timed
        # out, `dig --timeout 0` reported no response at once; `run
        # --interval inf` ran no tick, `--duration inf` died converting
        # NaN ticks to an int, `faults --duration nan` printed NaN spans).
        with pytest.raises(SystemExit) as exit_info:
            main([*command, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        # (argparse names `-p` as "-p/--port")
        assert re.search(rf"argument (\S+/)?{flag}(/\S+)?: must be", err)

    @pytest.mark.parametrize("command", [["run"]], ids=" ".join)
    def test_negative_heartbeat_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--heartbeat-every", "-1"])
        assert exit_info.value.code == 2
        assert "argument --heartbeat-every: must be" in capsys.readouterr().err

    def test_malformed_number_still_names_the_type(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--probes", "many"])
        assert "invalid int value: 'many'" in capsys.readouterr().err

    def test_boundary_campaign_numbers_parse(self):
        args = build_parser().parse_args(
            ["run", "--workers", "1", "--shards", "0", "--probes", "1",
             "--interval", "0.5", "--duration", "0", "--heartbeat-every", "0"]
        )
        assert (args.workers, args.shards, args.probes) == (1, 0, 1)
        assert (args.interval, args.duration) == (0.5, 0.0)

    def test_every_subcommand_is_in_the_api_doc(self):
        doc = Path(__file__).parents[1] / "docs" / "API.md"
        section = doc.read_text().split("## Command line")[1].split("\n## ")[0]
        listing = section.split("```")[1]
        # "name   description" rows; continuation lines are indented
        documented = {
            re.split(r"\s{2,}", line)[0]
            for line in listing.splitlines()
            if line[:1].strip()
        }

        def leaf_commands(surface, prefix=""):
            for name, entry in surface.items():
                if not isinstance(entry, dict):
                    continue  # an option of the enclosing command
                nested = list(leaf_commands(entry, f"{prefix}{name} "))
                yield from nested or [prefix + name]

        commands = set(leaf_commands(parser_surface(build_parser())))
        assert len(commands) == 17  # no command groups
        assert documented == commands

    def test_parser_surface_is_pinned(self):
        # The proof that sharing the option groups cost no command a
        # flag or a default: only type= callables (not compared) differ.
        assert parser_surface(build_parser()) == PARSER_SURFACE


class TestCommands:
    def test_combos(self, capsys):
        assert main(["combos"]) == 0
        out = capsys.readouterr().out
        assert "2C" in out and "FRA, SYD" in out

    def test_run_and_analyze_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "--combo", "2A", "--probes", "25", "--duration", "16",
                "--seed", "3", "--out", str(out_file),
            ]
        )
        assert code == 0
        run_output = capsys.readouterr().out
        assert "Figure 2" in run_output
        assert "Figure 4" in run_output
        assert out_file.exists()

        code = main(
            ["analyze", "--run", str(out_file), "--sites", "GRU", "NRT",
             "--combo", "2A"]
        )
        assert code == 0
        analyze_output = capsys.readouterr().out
        assert "Table 2" in analyze_output
        assert "GRU" in analyze_output

    def test_analyze_reports_a_run_too_short_to_analyse(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        assert main(["--quiet", "run", "--combo", "2A", "--probes", "5",
                     "--duration", "4", "--no-analyze", "--out", str(out_file)]) == 0
        header, row = out_file.read_text().splitlines()[:2]
        out_file.write_text(f"{header}\n{row}\n")
        capsys.readouterr()
        assert main(["analyze", "--run", str(out_file), "--sites", "GRU"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"analyze: {out_file}: no vantage point sent enough queries\n"
        )

    def test_run_reports_a_campaign_too_short_to_analyse(self, capsys):
        assert main(["run", "--combo", "2A", "--probes", "5",
                     "--duration", "4"]) == 2
        captured = capsys.readouterr()
        assert "Table 2" not in captured.out
        assert captured.err.endswith("\nrun: no vantage point sent enough queries\n")

    def test_run_ipv6(self, capsys):
        code = main(
            ["run", "--combo", "2B", "--probes", "40", "--duration", "10",
             "--ipv6"]
        )
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_sweep_small(self, capsys):
        code = main(
            ["sweep", "--probes", "25", "--intervals", "2", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2min" in out and "10min" in out

    #: sha256 of the analysis text (Figs 2, 3, 4 and Table 2 from
    #: ``run``; Fig 6 from ``sweep``).  A refactor of the analyses must
    #: not move a byte of what the CLI prints.
    ANALYSIS_TEXT_SHA256 = {
        ("run", "0"):
            "7d6d281c8d92a7786decad7158370d433a2c956e5e2ac76b04dccf19cd5726cd",
        ("run", "20170412"):
            "2c043b55dfa9bf1afad111f3536dc64d9018188588f9a919d619481115c4022c",
        ("sweep", "0"):
            "3d3d6e366b4c9f72bece74e56dff78e60a0c95f4b39d8dfe25561901a3125fca",
    }

    @pytest.mark.parametrize("command, seed", sorted(ANALYSIS_TEXT_SHA256))
    def test_analysis_text_is_pinned(self, capsys, command, seed):
        if command == "run":
            argv = ["run", "--combo", "4B", "--probes", "40", "--seed", seed]
        else:
            argv = ["sweep", "--probes", "25", "--intervals", "2", "10",
                    "--seed", seed]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            self.ANALYSIS_TEXT_SHA256[command, seed]
        ), out

    def test_passive_root(self, capsys, tmp_path):
        out_file = tmp_path / "trace.jsonl"
        code = main(
            ["passive", "--kind", "root", "--recursives", "40",
             "--min-queries", "50", "--out", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert out_file.exists()

    def test_passive_nl(self, capsys):
        code = main(
            ["passive", "--kind", "nl", "--recursives", "40",
             "--min-queries", "50"]
        )
        assert code == 0
        assert ".nl" in capsys.readouterr().out

    def test_plan(self, capsys):
        code = main(["plan", "--clients", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all-anycast" in out
        assert "all-unicast" in out


class TestOutputRouting:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "combos.txt"
        assert main(["--output", str(out_file), "combos"]) == 0
        assert capsys.readouterr().out == ""
        assert "FRA, SYD" in out_file.read_text()

    def test_quiet_silences_progress(self, capsys):
        main(["--quiet", "run", "--probes", "10", "--duration", "10"])
        captured = capsys.readouterr()
        assert "running 2C" not in captured.err
        assert "Figure 2" in captured.out

    def test_progress_goes_to_stderr(self, capsys):
        main(["run", "--probes", "10", "--duration", "10"])
        captured = capsys.readouterr()
        assert "running 2C" in captured.err
        assert "running 2C" not in captured.out


def kinds_in(log: Path) -> list[str]:
    """The record kinds of an event log, header excluded, in order."""
    return [json.loads(line)["kind"] for line in log.read_text().splitlines()[1:]]


class TestEventLogCommands:
    SMALL = ["--probes", "10", "--duration", "10", "--seed", "3"]

    def test_run_writes_event_log(self, capsys, tmp_path):
        log = tmp_path / "run.events.jsonl"
        code = main(
            ["--quiet", "run", "--probes", "10", "--duration", "10",
             "--events", str(log)]
        )
        assert code == 0
        header = json.loads(log.read_text().splitlines()[0])
        assert header["kind"] == "repro-event-log"
        # the closing snapshot, then the ledger; no wall-clock record
        assert kinds_in(log)[-2:] == ["metrics", "costs"]
        assert "profile" not in kinds_in(log)

    def test_dashboard_from_event_log(self, capsys, tmp_path):
        # The former dashboard's scorecard is top's finished frame.
        log = tmp_path / "run.events.jsonl"
        main(["--quiet", "run", "--no-analyze", *self.SMALL,
              "--events", str(log)])
        capsys.readouterr()
        assert main(["top", str(log)]) == 0
        out = capsys.readouterr().out
        assert "Per-NS query share vs. resolver-observed RTT (Fig 3)" in out
        assert "Recursive record-cache outcomes" in out
        assert "Loss and failure" in out

    def test_serial_log_is_reproducible_and_matches_one_shard(
        self, capsys, tmp_path
    ):
        logs = {}
        for name, sharding in {
            "first": [], "second": [],
            "w1s1": ["--workers", "1", "--shards", "1"],
        }.items():
            logs[name] = tmp_path / f"{name}.events.jsonl"
            assert main(["--quiet", "run", "--no-analyze", *self.SMALL,
                         *sharding, "--events", str(logs[name])]) == 0
        first = logs["first"].read_bytes()
        assert first == logs["second"].read_bytes()
        assert first == logs["w1s1"].read_bytes()

    def test_events_leave_the_observations_alone(self, capsys, tmp_path):
        plain, logged = tmp_path / "plain.jsonl", tmp_path / "logged.jsonl"
        base = ["--quiet", "run", "--no-analyze", *self.SMALL]
        assert main([*base, "--out", str(plain)]) == 0
        assert main([*base, "--out", str(logged),
                     "--events", str(tmp_path / "e.jsonl")]) == 0
        assert plain.read_bytes() == logged.read_bytes()

    @pytest.mark.parametrize("command", CAMPAIGN_COMMANDS, ids=" ".join)
    def test_every_campaign_log_closes_with_one_ledger(
        self, capsys, tmp_path, command
    ):
        log = tmp_path / "campaign.events.jsonl"
        assert main(["--quiet", *command, "--probes", "6", "--duration",
                     "10", "--seed", "1", "--events", str(log)]) == 0
        assert kinds_in(log).count("costs") == 1
        capsys.readouterr()
        assert main(["--quiet", "costs", str(log)]) == 0
        assert "Cost ledger" in capsys.readouterr().out


class TestMetricsCommand:
    """`metrics LOG` dumps what the in-process registry would have."""

    @pytest.mark.parametrize("shards", [None, 3], ids=["serial", "sharded"])
    def test_log_dump_equals_the_live_registry(self, capsys, tmp_path, shards):
        from repro.core import ExperimentConfig, run_campaign
        from repro.telemetry import Telemetry

        log = tmp_path / "run.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=log, costs=True)
        config = ExperimentConfig.for_combination(
            "2C", num_probes=12, interval_s=120.0, duration_s=600.0, seed=4
        )
        run_campaign(config, telemetry=telemetry, shards=shards)
        telemetry.events.close()
        prom, dumped = tmp_path / "metrics.prom", tmp_path / "metrics.json"
        assert main(["--output", str(prom), "metrics", str(log)]) == 0
        assert main(["--output", str(dumped), "metrics", str(log),
                     "--format", "json"]) == 0
        assert prom.read_text() == telemetry.registry.to_prometheus_text()
        assert dumped.read_text() == telemetry.registry.to_json(indent=2) + "\n"

    def test_log_without_snapshot_exits_one(self, capsys, tmp_path):
        from repro.telemetry import EventLogWriter, RunMeta

        log = tmp_path / "unfinished.events.jsonl"
        with EventLogWriter(log) as writer:
            writer.emit(RunMeta(run={"domain": "d.nl."}, at=0.0))
        assert main(["metrics", str(log)]) == 1
        assert capsys.readouterr().err.startswith(f"metrics: {log}: no metrics")


class TestCostsCommand:
    RUN = [
        "--quiet", "run", "--no-analyze", "--probes", "20", "--duration",
        "10", "--seed", "3",
    ]

    def test_defaults(self):
        args = build_parser().parse_args(["costs", "run.events.jsonl"])
        assert args.log == "run.events.jsonl"
        assert args.export is None

    def test_export_identical_for_serial_and_sharded(self, capsys, tmp_path):
        # The ledger used to go missing from a sharded log: the merge
        # dropped it.  Now both logs carry the same one.
        exports = {}
        for name, sharding in {
            "serial": ["--shards", "2"],
            "sharded": ["--workers", "2", "--shards", "2"],
        }.items():
            log = tmp_path / f"{name}.events.jsonl"
            exports[name] = tmp_path / f"{name}.json"
            assert main([*self.RUN, *sharding, "--events", str(log)]) == 0
            assert main(["--quiet", "costs", str(log),
                         "--export", str(exports[name])]) == 0
        data = json.loads(exports["serial"].read_text())
        assert data["schema"] == "repro-cost-ledger/1"
        assert data["queries"] > 0
        assert exports["serial"].read_bytes() == exports["sharded"].read_bytes()

    def test_log_mode_round_trips_the_ledger(self, capsys, tmp_path):
        log = tmp_path / "run.events.jsonl"
        assert main([*self.RUN, "--events", str(log)]) == 0
        capsys.readouterr()
        assert main(["--quiet", "costs", str(log)]) == 0
        assert "Cost ledger" in capsys.readouterr().out

    def test_log_without_costs_record_exits_one(self, capsys, tmp_path):
        # a real event log, but written without the cost ledger
        from repro.core import ExperimentConfig, run_campaign
        from repro.telemetry import Telemetry

        log = tmp_path / "plain.events.jsonl"
        telemetry = Telemetry.enabled_bundle(event_log=log)
        run_campaign(
            ExperimentConfig.for_combination(
                "2C", num_probes=5, interval_s=120.0, duration_s=240.0
            ),
            telemetry=telemetry,
        )
        telemetry.events.close()
        assert main(["costs", str(log)]) == 1
        assert capsys.readouterr().err.startswith(f"costs: {log}: no costs")

    def test_unreadable_log_exits_two(self, capsys, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["--quiet", "costs", str(log)]) == 2


class TestBenchHistoryCommand:
    @staticmethod
    def _suite_output(tmp_path, name, us_per_query, correct=True):
        """A saved full suite run: readable lines, then the result line."""
        spec = json.loads(Path("BENCHMARK.json").read_text())
        workloads = [row["name"] for row in spec["workloads"]]
        result = {
            "correct": correct,
            "end_to_end": {
                workload: {"setup_s": 0.5, "us_per_query": us_per_query,
                           "peak_rss_mib": 80.0}
                for workload in workloads
            },
            "per_layer": {
                workload: {row["name"]: 1.5 for row in spec["per_layer"]}
                for workload in workloads
            },
        }
        path = tmp_path / name
        path.write_text(
            "  campaign_cold     us_per_query   60.0000 us\n"
            + json.dumps(result) + "\n"
        )
        return str(path)

    def _record(self, capsys, tmp_path, history, *us_per_query):
        for us in us_per_query:
            assert main([
                "--quiet", "bench-history", "--dir", str(history),
                "--record", self._suite_output(tmp_path, f"{us}.out", us),
            ]) == 0
            capsys.readouterr()

    def test_record_and_render_trend(self, capsys, tmp_path):
        history = tmp_path / "history"
        self._record(capsys, tmp_path, history, 60.0, 66.0)
        assert main(["bench-history", "--dir", str(history)]) == 0
        out = capsys.readouterr().out
        assert "Bench trajectory — 2 entries ===" in out
        rows = [line for line in out.splitlines() if " us_per_query " in line]
        assert len(rows) == 4  # one per workload
        assert all(row.split()[-3:] == ["60", "66", "(1.10x)"] for row in rows)
        assert "dns.server." not in out

    def test_metrics_selects_per_layer_rows(self, capsys, tmp_path):
        history = tmp_path / "history"
        self._record(capsys, tmp_path, history, 60.0)
        assert main([
            "bench-history", "--dir", str(history), "--metrics", "dns.server.",
        ]) == 0
        out = capsys.readouterr().out
        assert sum(" dns.server." in line for line in out.splitlines()) == 4 * 4
        assert " us_per_query " not in out

    def test_record_from_stdin(self, capsys, tmp_path, monkeypatch):
        history = tmp_path / "history"
        saved = Path(self._suite_output(tmp_path, "suite.out", 60.0))
        monkeypatch.setattr("sys.stdin", io.StringIO(saved.read_text()))
        assert main(["bench-history", "--dir", str(history), "--record", "-"]) == 0
        assert "Bench trajectory — 1 entries" in capsys.readouterr().out

    def test_attributes_regressions(self, capsys, tmp_path):
        history = tmp_path / "history"
        self._record(capsys, tmp_path, history, 60.0, 80.0)
        assert main(["bench-history", "--dir", str(history)]) == 0
        out = capsys.readouterr().out
        assert "Regression attribution" in out
        assert "campaign_cold us_per_query 60 -> 80 us (33% worse" in out

    def test_missing_directory_exits_two(self, capsys, tmp_path):
        assert main([
            "bench-history", "--dir", str(tmp_path / "absent"),
        ]) == 2

    def test_unreadable_sidecar_exits_two(self, capsys, tmp_path):
        """``--record`` of a file that is not there records nothing."""
        assert main([
            "bench-history", "--dir", str(tmp_path / "h"), "--record",
            str(tmp_path / "absent.out"),
        ]) == 2
        assert not (tmp_path / "h").exists()

    def test_failed_run_is_not_recorded(self, capsys, tmp_path):
        history = tmp_path / "history"
        failed = self._suite_output(tmp_path, "failed.out", 60.0, correct=False)
        assert main(["bench-history", "--dir", str(history), "--record", failed]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("bench-history: ") and "\n" not in err
        assert not history.exists()

    @pytest.mark.parametrize("content", ["[]", '"x"', "{}"])
    def test_entry_that_is_not_an_entry_exits_two(self, capsys, tmp_path, content):
        (tmp_path / "0001-unknown.json").write_text(content)
        assert main(["bench-history", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("bench-history: ") and "\n" not in err

    def test_needs_the_benchmark_declaration(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench-history", "--dir", str(tmp_path)]) == 2
        assert "BENCHMARK.json" in capsys.readouterr().err

    @pytest.mark.parametrize("last", ["0", "-3", "x"])
    def test_last_must_be_positive(self, capsys, last):
        with pytest.raises(SystemExit) as exc:
            main(["bench-history", "--last", last])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_committed_history_renders(self, capsys):
        """The repo ships a real trajectory under benchmarks/history/."""
        assert main(["bench-history"]) == 0
        out = capsys.readouterr().out
        assert "Bench trajectory" in out
        assert "7 earlier entries in the retired sidecar schema not shown" in out
        # One table row per workload; regression-attribution lines that
        # name the metric are not rows.
        rows = [line.split() for line in out.splitlines()]
        assert sum(row[1:2] == ["us_per_query"] for row in rows) == 4


class TestScorecardCommand:
    def test_scorecard_runs_and_renders(self, capsys):
        # Tiny scale: the verdicts are noisy, so only the mechanics are
        # asserted here (the benchmark suite checks the real tolerances).
        code = main(
            ["scorecard", "--probes", "60", "--recursives", "60", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert "Paper-vs-measured scorecard" in out
        assert "claims within tolerance" in out
        assert code in (0, 1)


def write_profile(path: Path, **fields) -> Path:
    """An attack-profile file, written the way a user would write one."""
    path.write_text(json.dumps(
        {"kind": "repro-attack-profile", "version": 1, "name": "nxns",
         "vector": "nxns", **fields}
    ))
    return path


class TestFaultsCommands:
    """`run --scenario` / `--attack`, and the `faults` / `attack` listings."""

    CAMPAIGN = ["--combo", "2C", "--probes", "20", "--interval", "2",
                "--duration", "30", "--seed", "1"]

    def test_faults_list(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "ns-outage" in out
        assert "brownout" in out

    def test_faults_list_with_duration_expands_timeline(self, capsys):
        assert main(["faults", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "ns_outage" in out
        assert "600" in out  # middle third of a 30-minute campaign

    def test_attack_list(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "nxns-mitigated" in out
        assert "water-torture" in out

    def test_faults_run_small(self, capsys, tmp_path):
        events = tmp_path / "faults.jsonl"
        code = main(["run", "--scenario", "ns-outage", *self.CAMPAIGN,
                     "--no-analyze", "--events", str(events)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("fault timeline:")
        assert "fault.start" in out and "fault.end" in out
        assert "query share per fault window" in out
        assert "attack" not in out
        assert "fault.start" in events.read_text()

    def test_faults_run_scenario_file(self, capsys, tmp_path):
        from repro.netsim.faults import builtin_scenario

        path = builtin_scenario("ns-outage", 1800.0).save(
            tmp_path / "outage.json"
        )
        code = main(["run", "--scenario", str(path), *self.CAMPAIGN])
        assert code == 0
        out = capsys.readouterr().out
        # the analyses first, then what the campaign injected
        assert out.index("Table 2") < out.index("\n\nfault timeline:")

    def test_attack_profile_file_with_its_ledger(self, capsys, tmp_path):
        profile = write_profile(tmp_path / "attack.json", max_fetch=3, rrl_qps=2)
        log = tmp_path / "attack.events.jsonl"
        code = main(["--quiet", "run", "--attack", str(profile), *self.CAMPAIGN,
                     "--events", str(log), "--no-analyze"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("attack timeline:")
        assert "attack.begin" in out and "max_fetch=3 rrl_qps=2" in out
        amplification = re.search(r"fetch amplification\s+([\d.]+)x", out)
        assert 0 < float(amplification[1]) <= 3
        assert "RRL checks" in out
        assert "query share per fault window" in out
        assert main(["--quiet", "costs", str(log)]) == 0
        ledger = capsys.readouterr().out
        assert re.search(r"^attack_query +[1-9]", ledger, re.M)
        assert re.search(r"^ns_fetch +[1-9]", ledger, re.M)

    def test_scenario_and_attack_share_one_window_table(self, capsys, tmp_path):
        # The attack window (900-1350 s) and the outage (600-1200 s)
        # interleave: the one table splits at all four edges.
        profile = write_profile(
            tmp_path / "late.json", start_frac=0.5, end_frac=0.75
        )
        code = main(["--quiet", "run", "--scenario", "ns-outage", "--attack",
                     str(profile), *self.CAMPAIGN, "--no-analyze"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("fault timeline:") < out.index("\n\nattack timeline:")
        assert out.count("query share per fault window") == 1
        windows = re.findall(r"^(\d+-\d+)s ", out, re.M)
        assert windows == [
            "0-600", "600-900", "900-1200", "1200-1350", "1350-1800",
        ]

    def test_faults_run_unknown_scenario_errors(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["run", "--scenario", str(missing), "--probes", "5"]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["run"], ["run", "--attack", "nxns"]], ids=" ".join,
    )
    def test_unknown_scenario_is_one_error_everywhere(
        self, capsys, tmp_path, command
    ):
        # `run` used to raise ScenarioError as a traceback.
        events = tmp_path / "never.events.jsonl"
        code = main(
            [*command, "--scenario", "no-such-scenario", "--probes", "5",
             "--events", str(events)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "no-such-scenario" in captured.err
        assert not events.exists()  # rejected before anything was opened

    def test_unknown_attack_takes_the_same_error_path(self, capsys, tmp_path):
        events = tmp_path / "never.events.jsonl"
        code = main(["run", "--attack", "no-such-attack", "--events", str(events)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "no-such-attack" in captured.err
        assert not events.exists()

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--scenario", "[1]", "not a JSON object"),
            ("--attack", "[1]", "not a JSON object"),
            ("--attack", json.dumps({"kind": "repro-attack-profile",
                                     "version": 1, "name": "x",
                                     "vector": "nxns", "rrl_qps": 0}),
             "rrl_qps must be >= 1 or None, got 0"),
        ],
        ids=["scenario-list", "attack-list", "attack-rrl_qps-0"],
    )
    def test_bad_scenario_or_profile_file_is_a_usage_error(
        self, capsys, tmp_path, flag, content, message
    ):
        # A list used to die in `.get` and `rrl_qps` 0 to SERVFAIL every
        # query; both are now reported before anything is opened.
        path, events = tmp_path / "bad.json", tmp_path / "never.events.jsonl"
        path.write_text(content)
        code = main(["run", flag, str(path), "--probes", "5",
                     "--events", str(events)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"
        assert not events.exists()


class TestObservabilityCommands:
    """Every reader over one shared log: forensics, slo, top, metrics, costs."""

    @pytest.fixture(scope="class")
    def fault_log(self, tmp_path_factory):
        log = tmp_path_factory.mktemp("obs") / "faulted.events.jsonl"
        code = main(
            ["--quiet", "run", "--probes", "20", "--interval", "2",
             "--duration", "20", "--seed", "1", "--scenario", "ns-outage",
             "--heartbeat-every", "2", "--events", str(log)]
        )
        assert code == 0
        return log

    def test_run_heartbeat_flag_defaults_off(self):
        assert build_parser().parse_args(["run"]).heartbeat_every == 0

    def test_forensics_full_report(self, capsys, fault_log):
        assert main(["forensics", str(fault_log)]) == 0
        out = capsys.readouterr().out
        assert "Per-NS latency attribution" in out
        assert "Busiest resolvers" in out
        assert "ground-truth fault windows" in out
        assert "critical path:" in out

    def test_forensics_probe_selector(self, capsys, fault_log):
        assert main(["forensics", str(fault_log), "probe-0"]) == 0
        out = capsys.readouterr().out
        assert "match 'probe-0'" in out
        assert "resolver.resolve" in out

    def test_forensics_unknown_selector(self, capsys, fault_log):
        assert main(["forensics", str(fault_log), "probe-9999"]) == 1
        assert "nothing matches" in capsys.readouterr().err

    def test_forensics_missing_log(self, capsys, tmp_path):
        assert main(["forensics", str(tmp_path / "nope.jsonl")]) == 2

    def test_slo_report_scores_ground_truth(self, capsys, fault_log):
        assert main(["slo", str(fault_log)]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "Detection vs. ground truth" in out
        assert "ns-share-skew" in out

    def test_slo_check_exits_one_on_alert(self, capsys, fault_log):
        assert main(["--quiet", "slo", str(fault_log), "--check"]) == 1

    def test_slo_custom_spec(self, capsys, fault_log, tmp_path):
        spec = tmp_path / "slos.json"
        spec.write_text(json.dumps([
            {"name": "lenient", "kind": "p99_rtt_ms", "objective": 60000.0,
             "window_s": 120.0},
        ]))
        assert main(["slo", str(fault_log), "--spec", str(spec),
                     "--check"]) == 0
        assert "lenient" in capsys.readouterr().out

    def test_slo_bad_spec_exits_two(self, capsys, fault_log, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text("[]")
        assert main(["slo", str(fault_log), "--spec", str(spec)]) == 2

    def test_top_replays_saved_log(self, capsys, fault_log):
        assert main(["top", str(fault_log)]) == 0
        out = capsys.readouterr().out
        assert "Per-NS query share" in out
        assert "Shard progress" in out
        assert "finished" in out

    def test_top_follow_completes_on_finalized_log(self, capsys, fault_log):
        assert main(["--quiet", "top", str(fault_log),
                     "--follow", "--idle-timeout", "5"]) == 0
        assert "finished" in capsys.readouterr().out

    def test_top_follow_renders_scorecard_after_finalize(
        self, capsys, fault_log
    ):
        # The former dashboard's sections render once the closing
        # snapshot is read; its "Slowest" table is `forensics --top`.
        assert main(["--quiet", "top", str(fault_log), "--follow",
                     "--idle-timeout", "5"]) == 0
        out = capsys.readouterr().out
        assert "Per-NS query share" in out
        assert "Recursive record-cache outcomes" in out
        assert "Loss and failure" in out

    def test_top_missing_log_exits_two(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope.jsonl")]) == 2

    def test_top_live_runs_a_campaign(self, capsys, tmp_path):
        # The live view: `top --follow` tails the log a running `run`
        # writes, frame by frame, until the closing snapshot lands.
        import threading
        import time

        log = tmp_path / "live.events.jsonl"
        codes = []
        campaign = threading.Thread(target=lambda: codes.append(main(
            ["--quiet", "run", "--no-analyze", "--probes", "5",
             "--interval", "2", "--duration", "6", "--heartbeat-every", "1",
             "--events", str(log)]
        )))
        campaign.start()
        try:
            deadline = time.monotonic() + 30
            while not log.exists() or not log.read_text().endswith("\n"):
                assert time.monotonic() < deadline, "no event-log header"
                time.sleep(0.01)
            code = main(["top", str(log), "--follow", "--refresh", "0.01",
                         "--idle-timeout", "30"])
        finally:
            campaign.join(timeout=60)
        assert not campaign.is_alive()
        assert codes == [0] and code == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert "Loss and failure" in out

    def test_top_finished_frame_is_pinned(self, capsys, tmp_path):
        # Its Fig 3, cache and loss sections are, line for line, what the
        # removed `dashboard` command printed for the same log.
        golden = Path(__file__).parent / "golden_top_frame.txt"
        log = tmp_path / "golden.events.jsonl"
        assert main(["--quiet", "run", "--no-analyze", "--probes", "10",
                     "--interval", "2", "--duration", "20", "--seed", "1",
                     "--scenario", "ns-outage", "--events", str(log)]) == 0
        capsys.readouterr()
        assert main(["top", str(log)]) == 0
        frame = capsys.readouterr().out.replace(str(log), "golden.events.jsonl")
        assert frame == golden.read_text()

    #: reader command → argv around the log path.
    READERS = {
        "costs": lambda log: ["costs", log],
        "forensics": lambda log: ["forensics", log],
        "metrics": lambda log: ["metrics", log],
        "slo": lambda log: ["slo", log],
        "top": lambda log: ["top", log],
    }

    @staticmethod
    def _malformed(kind: str, good: str) -> str:
        lines = good.splitlines(keepends=True)
        if kind == "empty":
            return ""
        if kind == "not-json":
            return "this is not an event log\n" + "".join(lines[1:])
        if kind == "wrong-version":
            header = json.loads(lines[0])
            header["version"] = 1
            return json.dumps(header) + "\n" + "".join(lines[1:])
        if kind == "corrupt-middle":
            middle = len(lines) // 2
            lines[middle] = lines[middle][:40] + "\n"
            return "".join(lines)
        if kind == "malformed-trace":
            middle = len(lines) // 2
            assert json.loads(lines[middle])["kind"] == "trace"
            lines[middle] = '{"kind": "trace", "spans": []}\n'
            return "".join(lines)
        assert kind == "truncated-tail"
        # a writer that died mid-append: a record cut mid-line at the end
        return good + lines[len(lines) // 2][:40]

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize(
        "kind",
        ["empty", "not-json", "wrong-version", "corrupt-middle", "malformed-trace"],
    )
    def test_readers_report_a_malformed_log_and_exit_two(
        self, capsys, tmp_path, fault_log, reader, kind
    ):
        bad = tmp_path / f"{kind}.events.jsonl"
        bad.write_text(self._malformed(kind, fault_log.read_text()))
        # main() returning at all means no traceback escaped.
        assert main(self.READERS[reader](str(bad))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{reader}: {bad}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_readers_tolerate_a_truncated_final_line(
        self, capsys, caplog, tmp_path, fault_log, reader
    ):
        # A writer that died mid-append is not an error: the one line
        # parser skips the cut record with a warning and every reader
        # works from the complete lines.
        bad = tmp_path / "truncated.events.jsonl"
        bad.write_text(self._malformed("truncated-tail", fault_log.read_text()))
        assert main(self.READERS[reader](str(bad))) == 0
        captured = capsys.readouterr()
        assert captured.out
        assert "ignoring truncated final line" in caplog.text

    def test_top_follow_reports_a_corrupt_line(
        self, capsys, tmp_path, fault_log
    ):
        bad = tmp_path / "corrupt.events.jsonl"
        bad.write_text(self._malformed("corrupt-middle", fault_log.read_text()))
        assert main(["top", str(bad), "--follow", "--idle-timeout", "1"]) == 2
        assert f"top: {bad}: corrupt" in capsys.readouterr().err
