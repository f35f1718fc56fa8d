"""Tests for result persistence (JSONL round-trips)."""

import pytest

from repro.core.experiment import run_combination
from repro.core.results import load_run, save_run


@pytest.fixture(scope="module")
def small_run():
    return run_combination("2A", num_probes=15, duration_s=360.0, seed=11).run


class TestFileRoundtrip:
    def test_save_and_load(self, small_run, tmp_path):
        path = tmp_path / "run.jsonl"
        written = save_run(small_run, path)
        assert written == len(small_run.observations)
        loaded = load_run(path)
        assert loaded.domain == small_run.domain
        assert loaded.interval_s == small_run.interval_s
        assert loaded.observations == small_run.observations

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something_else"}\n')
        with pytest.raises(ValueError):
            load_run(path)
