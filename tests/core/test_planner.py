"""Tests for the §7 deployment planner."""

import random

import pytest

from repro.atlas.probes import ProbeGenerator
from repro.core.deployment import AuthoritativeSpec
from repro.core.planner import (
    DeploymentPlanner,
    SelectionModel,
    sidn_style_designs,
)


@pytest.fixture(scope="module")
def clients():
    return ProbeGenerator(rng=random.Random(1)).generate(300)


@pytest.fixture(scope="module")
def planner(clients):
    return DeploymentPlanner(clients)


class TestSelectionModel:
    def test_weights_sum_to_one(self):
        model = SelectionModel(latency_sensitive_share=0.5)
        weights = model.ns_weights([40.0, 100.0, 200.0])
        assert sum(weights) == pytest.approx(1.0)

    def test_fastest_gets_boost(self):
        model = SelectionModel(latency_sensitive_share=0.5)
        weights = model.ns_weights([100.0, 40.0])
        assert weights[1] == pytest.approx(0.75)
        assert weights[0] == pytest.approx(0.25)

    def test_fully_uniform(self):
        model = SelectionModel(latency_sensitive_share=0.0)
        assert model.ns_weights([1.0, 2.0, 3.0, 4.0]) == [0.25] * 4

    def test_fully_latency_sensitive(self):
        model = SelectionModel(latency_sensitive_share=1.0)
        assert model.ns_weights([5.0, 1.0]) == [0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SelectionModel().ns_weights([])


class TestPlanner:
    def test_needs_clients(self):
        with pytest.raises(ValueError):
            DeploymentPlanner([])

    def test_anycast_ns_beats_unicast_ns(self, planner, clients):
        unicast = planner.evaluate(
            [AuthoritativeSpec("ns1", ("FRA",))], name="unicast"
        )
        anycast = planner.evaluate(
            [AuthoritativeSpec("ns1", ("FRA", "IAD", "SYD", "GRU"))],
            name="anycast",
        )
        assert anycast.mean_expected_ms < unicast.mean_expected_ms

    def test_all_anycast_recommended(self, planner):
        best = planner.rank(sidn_style_designs())[0]
        assert best.name == "all-anycast"

    def test_mean_expected_monotone_in_anycast_count(self, planner):
        ranked = planner.rank(sidn_style_designs())
        # rank() orders by mean expected latency; that order must match
        # descending anycast count (the §7 message).
        anycast_counts = [ev.anycast_count for ev in ranked]
        assert anycast_counts == sorted(anycast_counts, reverse=True)

    def test_worst_ns_limited_by_unicast(self, planner):
        # A mixed design's slowest NS is the unicast one for remote
        # clients: its mean worst latency must exceed the all-anycast's
        # mean *expected* latency by a clear margin.
        designs = sidn_style_designs()
        mixed = planner.evaluate(designs["1-of-4-anycast"], name="mixed")
        all_any = planner.evaluate(designs["all-anycast"], name="all")
        assert mixed.p90_expected_ms > all_any.p90_expected_ms

    def test_per_client_invariants(self, planner):
        evaluation = planner.evaluate(
            sidn_style_designs()["2-of-4-anycast"], name="check"
        )
        epsilon = 1e-9
        for client in evaluation.per_client:
            assert client.best_ms - epsilon <= client.expected_ms
            assert client.expected_ms <= client.worst_ms + epsilon

    def test_percentiles_ordered(self, planner):
        evaluation = planner.evaluate(
            sidn_style_designs()["all-unicast"], name="check"
        )
        assert (
            evaluation.median_expected_ms
            <= evaluation.p90_expected_ms
        )

    def test_uniform_selection_increases_latency_of_mixed(self, clients):
        # With uniform selection every NS gets equal weight, so a far
        # unicast NS hurts more than under latency-sensitive selection.
        sensitive = DeploymentPlanner(
            clients, selection=SelectionModel(latency_sensitive_share=0.9)
        )
        uniform = DeploymentPlanner(
            clients, selection=SelectionModel(latency_sensitive_share=0.0)
        )
        design = sidn_style_designs()["1-of-4-anycast"]
        assert (
            uniform.evaluate(design).mean_expected_ms
            > sensitive.evaluate(design).mean_expected_ms
        )


class TestDesigns:
    def test_design_count(self):
        designs = sidn_style_designs(ns_count=4)
        assert len(designs) == 5

    def test_all_unicast_has_no_anycast(self):
        specs = sidn_style_designs()["all-unicast"]
        assert all(not spec.is_anycast for spec in specs)

    def test_all_anycast_is_fully_anycast(self):
        specs = sidn_style_designs()["all-anycast"]
        assert all(spec.is_anycast for spec in specs)

    def test_custom_ns_count(self):
        designs = sidn_style_designs(ns_count=2)
        assert set(designs) == {"all-unicast", "1-of-2-anycast", "all-anycast"}
