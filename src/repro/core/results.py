"""Result persistence: observations to/from JSON Lines.

The paper publishes its measurement dataset [19, 22]; this module gives
the reproduction the same property — campaigns can be stored, shared,
and re-analyzed without re-running the simulation.
"""

from __future__ import annotations

import json
from pathlib import Path

from .store import MeasurementRun


def save_run(run: MeasurementRun, path: str | Path) -> int:
    """Write a run as JSONL with a header line; returns rows written.

    Rows stream straight out of the columnar store — no observation
    objects materialize, so saving a 33M-row campaign allocates only
    one transient dict at a time.
    """
    path = Path(path)
    with path.open("w") as fh:
        header = {
            "kind": "measurement_run",
            "domain": run.domain,
            "interval_s": run.interval_s,
            "duration_s": run.duration_s,
        }
        fh.write(json.dumps(header) + "\n")
        dumps = json.dumps
        write = fh.write
        for row in run.store.iter_dicts():
            write(dumps(row) + "\n")
    return len(run.store)


def load_run(path: str | Path) -> MeasurementRun:
    """Read a run written by :func:`save_run`."""
    path = Path(path)
    with path.open() as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "measurement_run":
            raise ValueError(f"{path} is not a measurement-run file")
        run = MeasurementRun(
            domain=header["domain"],
            interval_s=header["interval_s"],
            duration_s=header["duration_s"],
        )
        append = run.store.append_dict
        for line in fh:
            line = line.strip()
            if line:
                append(json.loads(line))
    return run
