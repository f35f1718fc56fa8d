"""Tests for the passive-trace generators (DITL Root and .nl)."""

import pytest

from repro.analysis.rank_bands import analyze_rank_bands
from repro.netsim.geo import PROBE_CITIES
from repro.passive.ditl import (
    MISSING_LETTERS,
    OBSERVED_LETTERS,
    ROOT_LETTERS,
    generate_ditl_trace,
    root_server_set,
)
from repro.passive.generator import (
    MAX_RECURSIVES,
    GeneratorConfig,
    PassiveTraceGenerator,
    ServerSet,
    recursive_address,
)
from repro.passive.nl import NL_OBSERVED, generate_nl_trace, nl_server_set


class TestServerSet:
    def test_root_has_13_letters(self):
        assert len(root_server_set().server_ids) == 13
        assert tuple(root_server_set().server_ids) == ROOT_LETTERS

    def test_root_observes_10(self):
        assert len(OBSERVED_LETTERS) == 10
        assert set(MISSING_LETTERS) == {"b", "g", "l"}

    def test_nl_has_8_servers_4_observed(self):
        server_set = nl_server_set()
        assert len(server_set.server_ids) == 8
        assert len(NL_OBSERVED) == 4

    def test_observed_must_exist(self):
        with pytest.raises(ValueError):
            ServerSet(
                zone="x",
                sites_by_server={"a": (PROBE_CITIES["AMS"],)},
                observed=("a", "zz"),
            )


class TestGenerator:
    @pytest.fixture(scope="class")
    def small_root_trace(self):
        return generate_ditl_trace(num_recursives=60, seed=5)

    def test_records_only_observed_letters(self, small_root_trace):
        servers = {record.server_id for record in small_root_trace.records}
        assert servers <= set(OBSERVED_LETTERS)

    def test_timestamps_in_capture_window(self, small_root_trace):
        assert all(0 <= r.timestamp < 3600 for r in small_root_trace.records)

    def test_records_sorted(self, small_root_trace):
        stamps = [r.timestamp for r in small_root_trace.records]
        assert stamps == sorted(stamps)

    def test_reproducible(self):
        one = generate_ditl_trace(num_recursives=20, seed=9)
        two = generate_ditl_trace(num_recursives=20, seed=9)
        assert one.records == two.records

    def test_heavy_tailed_rates(self, small_root_trace):
        table = small_root_trace.queries_by_recursive()
        totals = sorted(sum(c.values()) for c in table.values())
        assert totals[0] < 100          # some quiet recursives
        assert totals[-1] > 500         # some very busy ones

    def test_capture_coverage_shrinks_visibility(self):
        full = generate_ditl_trace(num_recursives=40, seed=6, capture_coverage=1.0)
        partial = generate_ditl_trace(num_recursives=40, seed=6, capture_coverage=0.5)
        assert partial.query_count < full.query_count


class TestRecursiveAddresses:
    """Recursives are named inside 198.18.0.0/15 (RFC 2544), 250 a /24."""

    def test_first_sixty_four_thousand_keep_their_names(self):
        assert recursive_address(0) == "198.18.0.1"
        assert recursive_address(249) == "198.18.0.250"
        assert recursive_address(250) == "198.18.1.1"
        assert recursive_address(63_999) == "198.18.255.250"

    def test_the_next_ones_carry_into_198_19(self):
        assert recursive_address(64_000) == "198.19.0.1"
        assert recursive_address(MAX_RECURSIVES - 1) == "198.19.255.250"

    def test_past_the_slash_15_is_an_error(self):
        assert MAX_RECURSIVES == 128_000
        with pytest.raises(ValueError, match="198.18.0.0/15"):
            recursive_address(MAX_RECURSIVES)
        with pytest.raises(ValueError, match="198.18.0.0/15"):
            generate_ditl_trace(num_recursives=MAX_RECURSIVES + 1)


class TestFigure7Shape:
    """The paper's §5 headline numbers, at reduced scale."""

    @pytest.fixture(scope="class")
    def root_result(self):
        trace = generate_ditl_trace(num_recursives=250, seed=2)
        return analyze_rank_bands(
            trace.queries_by_recursive(), target_count=10, min_queries=250
        )

    @pytest.fixture(scope="class")
    def nl_result(self):
        trace = generate_nl_trace(num_recursives=250, seed=3)
        return analyze_rank_bands(
            trace.queries_by_recursive(), target_count=4, min_queries=250
        )

    def test_root_single_letter_share(self, root_result):
        # Paper: about 20% of busy recursives query only one letter.
        assert 10 <= root_result.pct_querying_exactly(1) <= 32

    def test_root_six_or_more(self, root_result):
        # Paper: ~60% query at least 6 letters.
        assert 45 <= root_result.pct_querying_at_least(6) <= 75

    def test_root_all_ten_rare(self, root_result):
        # Paper: only ~2% query all 10 observed letters.
        assert root_result.pct_querying_all() <= 10

    def test_nl_majority_query_all(self, nl_result):
        # Paper: the majority of recursives query all observed .nl NSes.
        assert nl_result.pct_querying_all() > 50

    def test_nl_fewer_single_ns_than_root(self, root_result, nl_result):
        assert nl_result.pct_querying_exactly(1) < root_result.pct_querying_exactly(1)


class TestDiurnalModulation:
    """§3.1: 'it seems unlikely that authoritative selection is strongly
    affected by diurnal factors' — testable here."""

    def test_modulation_changes_volumes(self):
        flat = generate_ditl_trace(num_recursives=60, seed=7)
        diurnal = generate_ditl_trace(
            num_recursives=60, seed=7, diurnal_amplitude=0.8
        )
        assert flat.query_count != diurnal.query_count

    def test_selection_shape_unaffected(self):
        # The Figure 7 aggregates barely move under strong diurnal
        # modulation — confirming the paper's assumption.
        flat_trace = generate_ditl_trace(num_recursives=200, seed=8)
        diurnal_trace = generate_ditl_trace(
            num_recursives=200, seed=8, diurnal_amplitude=0.8
        )
        flat = analyze_rank_bands(
            flat_trace.queries_by_recursive(), target_count=10, min_queries=250
        )
        diurnal = analyze_rank_bands(
            diurnal_trace.queries_by_recursive(), target_count=10, min_queries=250
        )
        assert abs(
            flat.pct_querying_exactly(1) - diurnal.pct_querying_exactly(1)
        ) < 12.0
        assert abs(
            flat.pct_querying_at_least(6) - diurnal.pct_querying_at_least(6)
        ) < 15.0
