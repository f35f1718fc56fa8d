"""Smoke tests: every example script runs to completion at tiny scale.

Examples are the first thing a downstream user touches, so they get the
same regression protection as the library.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 240.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "wire" not in result.stderr.lower()
        assert "hello from FRA" in result.stdout
        assert "Frankfurt" in result.stdout

    def test_resolver_selection_study(self):
        result = run_example(
            "resolver_selection_study.py", "--probes", "40", "--combos", "2C"
        )
        assert result.returncode == 0, result.stderr
        assert "Figure 4" in result.stdout
        assert "Table 2" in result.stdout

    def test_deployment_planner(self):
        result = run_example("deployment_planner.py", "--clients", "60")
        assert result.returncode == 0, result.stderr
        assert "all-anycast" in result.stdout
        assert "recommended design" in result.stdout

    def test_passive_analysis(self, tmp_path):
        result = run_example(
            "passive_analysis.py", "--recursives", "40", "--outdir", str(tmp_path)
        )
        assert result.returncode == 0, result.stderr
        assert "Figure 7" in result.stdout
        assert (tmp_path / "ditl_root.jsonl").exists()
        assert (tmp_path / "nl.jsonl").exists()

    def test_ddos_resilience(self):
        result = run_example("ddos_resilience.py", "--clients", "60")
        assert result.returncode == 0, result.stderr
        assert "availability" in result.stdout

    def test_anycast_catchment(self):
        result = run_example("anycast_catchment.py", "--probes", "60")
        assert result.returncode == 0, result.stderr
        assert "catchment" in result.stdout
        assert "resolver-10.53.0.1" in result.stdout

    def test_public_resolver_study(self):
        result = run_example(
            "public_resolver_study.py", "--probes", "50"
        )
        assert result.returncode == 0, result.stderr
        assert "public" in result.stdout

    def test_interval_study(self):
        result = run_example("interval_study.py", "--probes", "25", timeout=400.0)
        assert result.returncode == 0, result.stderr
        assert "30min" in result.stdout

    def test_ns_outage_study(self):
        result = run_example(
            "ns_outage_study.py",
            "--probes", "80", "--interval-s", "30", "--duration-s", "600",
        )
        assert result.returncode == 0, result.stderr
        assert "weakest NS caps the zone" in result.stdout
        assert "share collapses" in result.stdout

    def test_nxns_study(self):
        result = run_example(
            "nxns_study.py",
            "--probes", "40", "--interval-s", "60", "--duration-s", "600",
            timeout=400.0,
        )
        assert result.returncode == 0, result.stderr
        assert "MaxFetch caps amplification at 3" in result.stdout
        assert "MaxFetch caps the amplification" in result.stdout
        assert "10.0x fetch amplification" in result.stdout
        assert "water torture from one /24" in result.stdout
        assert "all adversarial claims hold" in result.stdout

    def test_fault_detection_study(self):
        result = run_example(
            "fault_detection_study.py",
            "--probes", "40", "--interval-s", "60", "--duration-s", "1200",
        )
        assert result.returncode == 0, result.stderr
        assert "Detection scorecard" in result.stdout
        assert "all detection claims hold" in result.stdout
        assert "control campaign alerts: 0" in result.stdout
