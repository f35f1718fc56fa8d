"""Tests for the resolver population model."""

import random
from collections import Counter

import pytest

from repro.resolvers.population import (
    DEFAULT_MIX,
    INFRA_TTL_S,
    SELECTOR_CLASSES,
    ResolverPopulation,
)


class TestMixValidation:
    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)

    def test_default_mix_names_valid(self):
        assert set(DEFAULT_MIX) <= set(SELECTOR_CLASSES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ResolverPopulation({"bogus": 1.0})

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            ResolverPopulation({"bind": 0.0})

    def test_weights_normalized(self):
        population = ResolverPopulation({"bind": 2.0, "random": 2.0})
        assert population.mix == {"bind": 0.5, "random": 0.5}


class TestSampling:
    def test_sample_shares_match_mix(self):
        population = ResolverPopulation(
            {"bind": 0.7, "random": 0.3}, rng=random.Random(1)
        )
        counts = Counter(population.sample().impl_name for _ in range(3000))
        assert 0.65 < counts["bind"] / 3000 < 0.75

    def test_sample_instantiates_correct_class(self):
        population = ResolverPopulation({"sticky": 1.0}, rng=random.Random(2))
        sample = population.sample()
        assert sample.impl_name == "sticky"
        assert type(sample.selector).name == "sticky"

    def test_samples_have_independent_rngs(self):
        population = ResolverPopulation({"random": 1.0}, rng=random.Random(3))
        one, two = population.sample(), population.sample()
        seq_one = [one.selector.rng.random() for _ in range(5)]
        seq_two = [two.selector.rng.random() for _ in range(5)]
        assert seq_one != seq_two

    def test_infra_ttl_attached(self):
        population = ResolverPopulation({"unbound": 1.0}, rng=random.Random(4))
        assert population.sample().infra_ttl_s == INFRA_TTL_S["unbound"]

    def test_reproducible_with_seed(self):
        a, b = (ResolverPopulation(rng=random.Random(5)) for _ in range(2))
        assert [a.sample().impl_name for _ in range(50)] == [
            b.sample().impl_name for _ in range(50)
        ]
