"""Tests for the paper-claims scorecard."""

import pytest

from repro.analysis.paper import PAPER_CLAIMS, Scorecard, build_scorecard
from repro.core import COMBINATIONS, run_combination


class TestClaims:
    def test_claims_cover_all_figures_and_tables(self):
        sources = {claim.source for claim in PAPER_CLAIMS.values()}
        assert {"Fig 2", "Fig 4", "Fig 6", "Fig 7", "Table 2"} <= sources

    def test_claim_ids_unique_and_self_keyed(self):
        for claim_id, claim in PAPER_CLAIMS.items():
            assert claim.claim_id == claim_id

    def test_tolerances_positive(self):
        assert all(claim.tolerance > 0 for claim in PAPER_CLAIMS.values())


class TestScorecard:
    def test_record_unknown_claim_rejected(self):
        with pytest.raises(KeyError):
            Scorecard().record("nonsense", 1.0)

    def test_verdict_ok_within_tolerance(self):
        card = Scorecard()
        claim = PAPER_CLAIMS["fig4_2c_weak"]
        card.record(claim.claim_id, claim.paper_value + claim.tolerance / 2)
        assert card.verdict(claim.claim_id) == "ok"

    def test_verdict_off_outside_tolerance(self):
        card = Scorecard()
        claim = PAPER_CLAIMS["fig4_2c_weak"]
        card.record(claim.claim_id, claim.paper_value + claim.tolerance * 2)
        assert card.verdict(claim.claim_id) == "off"
        assert card.misses() == [claim.claim_id]

    def test_missing_verdict(self):
        card = Scorecard()
        assert card.verdict("fig4_2c_weak") == "missing"

    def test_all_ok(self):
        card = Scorecard()
        for claim in list(PAPER_CLAIMS.values())[:3]:
            card.record(claim.claim_id, claim.paper_value)
        assert len(card.measured) == 3
        assert card.misses() == []

    def test_render_contains_verdicts(self):
        card = Scorecard()
        claim = PAPER_CLAIMS["table2_2c_eu_fra_rtt"]
        card.record(claim.claim_id, 40.0)
        text = card.render()
        assert "ok" in text
        assert "39 ms" in text
        assert "scorecard" in text.lower()


class TestBuildScorecard:
    def test_records_every_claim_from_one_run_per_combination(self):
        # The CLI (`scorecard`) and benchmarks/bench_scorecard.py both
        # delegate here, differing only in get_run and the sizes — so
        # this is the one place a claim can be dropped or added.
        asked = []

        def get_run(combo_id):
            asked.append(combo_id)
            return run_combination(combo_id, num_probes=40, seed=1)

        card = build_scorecard(get_run, sweep_probes=20, recursives=60, seed=1)
        assert asked == list(COMBINATIONS)
        assert set(card.measured) == set(PAPER_CLAIMS)
        assert len(card.measured) == 18
        assert "missing" not in {card.verdict(c) for c in PAPER_CLAIMS}
