"""Result persistence: observations to/from JSON Lines.

The paper publishes its measurement dataset [19, 22]; this module gives
the reproduction the same property — campaigns can be stored, shared,
and re-analyzed without re-running the simulation.
"""

from __future__ import annotations

from pathlib import Path

from .columns import load_jsonl, save_jsonl, typed_values
from .store import MeasurementRun


def save_run(run: MeasurementRun, path: str | Path) -> int:
    """Write a run as JSONL with a header line; returns rows written.

    Rows stream straight out of the columnar store — no observation
    objects materialize, so saving a 33M-row campaign allocates only
    one transient dict at a time.
    """
    header = {
        "domain": run.domain,
        "interval_s": run.interval_s,
        "duration_s": run.duration_s,
    }
    save_jsonl(path, "measurement_run", header, run.store.iter_dicts())
    return len(run.store)


_HEADER_SCHEMA = (
    ("domain", (str,)), ("interval_s", (float, int)), ("duration_s", (float, int)),
)


def _open_run(header: dict):
    run = MeasurementRun(*typed_values(header, _HEADER_SCHEMA))
    return run, run.store.append_dict


def load_run(path: str | Path) -> MeasurementRun:
    """Read a run written by :func:`save_run`.

    A malformed header or row (not a JSON object, a missing key, a value
    of the wrong type or out of its column's range, a continent that is
    not a :class:`~repro.netsim.geo.Continent`) raises ``ValueError``
    naming ``file:line``.
    """
    return load_jsonl(path, "measurement_run", _open_run)
