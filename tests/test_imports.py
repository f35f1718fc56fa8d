"""Importing a module never imports its siblings.

Package roots re-export their submodules' names lazily, and the CLI
imports what a command runs inside that command's handler, so
``repro-dns serve`` loads the DNS engine and not the simulator.  Each
check runs in a fresh interpreter: what another test imported cannot
hide what a module pulls in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = [
    "repro",
    "repro.analysis",
    "repro.atlas",
    "repro.core",
    "repro.dns",
    "repro.netsim",
    "repro.passive",
    "repro.resolvers",
    "repro.telemetry",
]


def fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter, its output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )


def run_fresh(code: str):
    """The JSON that ``code`` prints from a fresh interpreter."""
    return json.loads(fresh(code).stdout)


def loaded_after(*modules: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after importing ``modules``."""
    imports = "".join(f"import {module}\n" for module in modules)
    return set(run_fresh(f"import json, sys\n{imports}print(json.dumps(list(sys.modules)))"))


def under(loaded: set[str], *packages: str) -> list[str]:
    return sorted(
        module for module in loaded
        if any(module == p or module.startswith(p + ".") for p in packages)
    )


def test_import_repro_loads_no_subpackage():
    assert under(loaded_after("repro"), "repro") == ["repro"]


def test_serve_and_dig_load_no_simulator():
    loaded = loaded_after("repro.cli", "repro.dns.listener", "repro.dns.zonefile")
    assert under(
        loaded,
        "repro.analysis", "repro.atlas", "repro.passive", "repro.resolvers",
        "repro.core.experiment", "repro.core.parallel", "multiprocessing",
    ) == []


PILLARS = tuple(
    f"repro.telemetry.{pillar}"
    for pillar in ("registry", "sketch", "tracing", "costs", "events")
)


def test_a_telemetry_off_campaign_loads_no_pillar_or_socket():
    loaded = loaded_after("repro.core.experiment")
    assert under(loaded, "socket", "selectors", *PILLARS) == []


def test_the_passive_path_loads_no_pillar():
    loaded = set(run_fresh(
        "import json, sys\n"
        "from repro.passive import generate_ditl_trace\n"
        "generate_ditl_trace(num_recursives=12, seed=1)\n"
        "print(json.dumps(list(sys.modules)))"
    ))
    assert "repro.passive.generator" in loaded
    assert under(loaded, *PILLARS) == []


def test_serve_and_dig_load_no_pillar():
    loaded = loaded_after("repro.cli", "repro.dns.listener", "repro.dns.zonefile")
    assert under(loaded, *PILLARS) == []


def test_an_enabled_bundle_loads_what_it_builds():
    kinds = run_fresh(
        "import json\n"
        "from repro.telemetry import Telemetry\n"
        "t = Telemetry.enabled_bundle(costs=True)\n"
        "print(json.dumps([type(t.registry).__name__, type(t.tracer).__name__,"
        " type(t.costs).__name__, t.enabled, t.costs.enabled]))"
    )
    assert kinds == ["MetricsRegistry", "Tracer", "CostLedger", True, True]


def test_the_modules_that_log_write_into_one_null_handler():
    done = fresh(
        "import json, logging\n"
        "import repro.telemetry.tracing\n"
        "import repro.telemetry.events\n"
        "handlers = logging.getLogger('repro').handlers\n"
        "logging.getLogger('repro.telemetry.tracing').warning('unheard')\n"
        "print(json.dumps([type(h).__name__ for h in handlers]))"
    )
    assert json.loads(done.stdout) == ["NullHandler"]
    assert done.stderr == ""


def test_a_campaign_loads_no_analysis_planner_or_process_pool():
    loaded = loaded_after("repro.core.experiment")
    assert under(
        loaded,
        "multiprocessing", "repro.analysis", "repro.passive",
        "repro.core.planner", "repro.atlas.catchment", "repro.atlas.public",
    ) == []


def test_importtime_logs_what_a_root_loads_on_first_use():
    # CI's serve smoke reads `-X importtime` logs, so a module a root
    # loads lazily must show there as well as in `sys.modules`.
    done = fresh("import repro.dns\nrepro.dns.AuthoritativeServer", "-X", "importtime")
    logged = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"repro.dns.server", "repro.telemetry.bundle"} <= logged


@pytest.mark.parametrize("root", ROOTS)
def test_every_exported_name_resolves_and_is_listed(root):
    # A typo in a root's table is a name that is exported but does not
    # resolve; `dir()` is read before any name is, so it must list
    # what has not been loaded yet.
    problems = run_fresh(
        "import importlib, json\n"
        f"root = importlib.import_module({root!r})\n"
        "listed = set(dir(root))\n"
        "problems = [name for name in root.__all__ if name not in listed]\n"
        "for name in root.__all__:\n"
        "    try:\n"
        "        getattr(root, name)\n"
        "    except AttributeError as exc:\n"
        "        problems.append(f'{name}: {exc}')\n"
        "print(json.dumps(problems))"
    )
    assert problems == []


def test_unknown_names_still_fail():
    import repro.dns

    with pytest.raises(AttributeError, match="has no attribute 'Nope'"):
        repro.dns.Nope  # noqa: B018
    with pytest.raises(ImportError):
        from repro.dns import Nope  # noqa: F401


def test_a_root_name_is_the_submodule_object():
    import repro
    import repro.core.experiment
    from repro.dns import Message
    from repro.dns.message import Message as defined

    assert Message is defined
    assert repro.core.ExperimentConfig is repro.core.experiment.ExperimentConfig
