"""Tests for the §3.1 client-vs-server view validation.

The server-side capture is the ``auth.query`` spans a campaign's tracer
keeps, so every campaign here runs with telemetry on.
"""

import pytest

from repro.analysis.validation import (
    client_side_shares,
    compare_views,
    server_side_shares_from_trace,
)
from repro.core.experiment import run_combination
from repro.telemetry import Telemetry


def traced_run(*args, **kwargs):
    """``run_combination`` with a live tracer: (result, tracer)."""
    telemetry = Telemetry.enabled_bundle()
    return run_combination(*args, telemetry=telemetry, **kwargs), telemetry.tracer


@pytest.fixture(scope="module")
def traced():
    return traced_run("2C", num_probes=60, duration_s=1200.0, seed=13)


@pytest.fixture(scope="module")
def experiment(traced):
    return traced[0]


@pytest.fixture(scope="module")
def tracer(traced):
    return traced[1]


class TestClientSide:
    def test_shares_per_recursive(self, experiment):
        shares = client_side_shares(experiment.observations)
        assert shares
        for per_site in shares.values():
            assert sum(per_site.values()) == pytest.approx(1.0)

    def test_min_queries_filter(self, experiment):
        all_shares = client_side_shares(experiment.observations, min_queries=1)
        strict = client_side_shares(experiment.observations, min_queries=10)
        assert len(strict) <= len(all_shares)


class TestServerSide:
    def test_shares_from_spans(self, tracer):
        shares = server_side_shares_from_trace(tracer)
        assert shares
        for per_site in shares.values():
            assert sum(per_site.values()) == pytest.approx(1.0)

    def test_sites_are_deployment_sites(self, tracer):
        shares = server_side_shares_from_trace(tracer)
        sites = {site for per_site in shares.values() for site in per_site}
        assert sites <= {"FRA", "SYD"}

    def test_shares_pinned_on_a_40_probe_campaign(self):
        """One ``auth.query`` span per query reaches the server side: the
        same 46 recursives and 15 queries each that the engines' own
        query logs held before the spans became the only capture."""
        _, tracer = traced_run("2C", num_probes=40, duration_s=1800.0, seed=5)
        shares = server_side_shares_from_trace(tracer)
        expected = {}
        for recursive, fra in PINNED_FRA_QUERIES_OF_15.items():
            counts = {"FRA": fra, "SYD": 15 - fra}
            expected[recursive] = {
                site: count / 15 for site, count in counts.items() if count
            }
        assert shares == expected


#: recursive address -> queries (of 15, one per tick) its FRA engine answered
PINNED_FRA_QUERIES_OF_15 = {
    "10.53.0.1": 6, "10.53.0.2": 13, "10.53.0.3": 15, "10.53.0.4": 4,
    "10.53.0.5": 5, "10.53.0.6": 1, "10.53.0.7": 10, "10.53.0.8": 15,
    "10.53.0.9": 14, "10.53.0.10": 8, "10.53.0.11": 14, "10.53.0.12": 9,
    "10.53.0.13": 13, "10.53.0.14": 14, "10.53.0.15": 13, "10.53.0.16": 0,
    "10.53.0.17": 0, "10.53.0.18": 12, "10.53.0.19": 13, "10.53.0.20": 15,
    "10.53.0.21": 14, "10.53.0.22": 14, "10.53.0.23": 12, "10.53.0.24": 9,
    "10.53.0.25": 7, "10.53.0.26": 14, "10.53.0.27": 4, "10.53.0.28": 7,
    "10.53.0.29": 7, "10.53.0.30": 2, "10.53.0.31": 8, "10.53.0.32": 12,
    "10.53.0.33": 0, "10.53.0.34": 13, "10.53.0.35": 15, "10.53.0.36": 9,
    "10.53.0.37": 12, "10.53.0.38": 8, "10.53.0.39": 7, "10.53.0.40": 8,
    "10.54.0.1": 13, "10.54.0.10": 6, "10.54.0.11": 8, "10.54.0.14": 13,
    "10.54.0.32": 7, "10.54.0.37": 9,
}


class TestComparison:
    def test_views_equivalent_without_middleboxes(self, experiment, tracer):
        # The paper's own check: "the two graphs are basically
        # equivalent".  With no middleboxes in the simulation, client-
        # and server-side views must agree almost exactly (retries can
        # create tiny divergences).
        comparison = compare_views(experiment.observations, tracer)
        assert comparison.recursives_compared > 20
        assert comparison.views_equivalent
        assert comparison.mean_divergence < 0.02

    def test_no_phantom_recursives(self, experiment, tracer):
        comparison = compare_views(experiment.observations, tracer)
        # Everything the servers saw came from a recursive the client
        # data knows about, and vice versa (modulo the min-query gate).
        assert comparison.server_only <= 3
        assert comparison.client_only <= 3
