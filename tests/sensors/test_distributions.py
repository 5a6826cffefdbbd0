"""Unit tests for selectivity-estimation distributions."""

import random

import pytest

from repro.sensors.distributions import (
    AttributeHistogram,
    DistributionSet,
    UniformDistribution,
)
from repro.sensors.field import AttributeSpec, standard_attributes


@pytest.fixture
def light_spec():
    return AttributeSpec("light", 0.0, 1000.0)


class TestUniformDistribution:
    def test_full_range_probability_one(self, light_spec):
        dist = UniformDistribution(light_spec)
        assert dist.probability(0.0, 1000.0) == 1.0

    def test_half_range(self, light_spec):
        dist = UniformDistribution(light_spec)
        assert dist.probability(250.0, 750.0) == pytest.approx(0.5)

    def test_clipping_beyond_range(self, light_spec):
        dist = UniformDistribution(light_spec)
        assert dist.probability(-500.0, 500.0) == pytest.approx(0.5)
        assert dist.probability(-100.0, 2000.0) == 1.0

    def test_disjoint_range_zero(self, light_spec):
        dist = UniformDistribution(light_spec)
        assert dist.probability(2000.0, 3000.0) == 0.0

    def test_degenerate_spec(self):
        dist = UniformDistribution(AttributeSpec("k", 5.0, 5.0))
        assert dist.probability(0.0, 10.0) == 1.0
        assert dist.probability(6.0, 10.0) == 0.0

    def test_observe_is_noop(self, light_spec):
        dist = UniformDistribution(light_spec)
        dist.observe(100.0)
        assert dist.probability(0.0, 500.0) == pytest.approx(0.5)


class TestHistogramDistribution:
    def test_starts_uniform(self, light_spec):
        dist = AttributeHistogram.from_spec(light_spec, n_buckets=10)
        assert dist.probability(0.0, 500.0) == pytest.approx(0.5)

    def test_converges_to_observations(self, light_spec):
        dist = AttributeHistogram.from_spec(light_spec, n_buckets=10)
        rng = random.Random(3)
        for _ in range(5000):
            dist.observe(rng.uniform(0.0, 200.0))  # all mass in [0, 200]
        assert dist.probability(0.0, 200.0) > 0.95
        assert dist.probability(500.0, 1000.0) < 0.05

    def test_partial_bucket_overlap_interpolates(self, light_spec):
        dist = AttributeHistogram.from_spec(light_spec, n_buckets=10)
        # uniform prior: [0, 50] covers half of the first 100-wide bucket
        assert dist.probability(0.0, 50.0) == pytest.approx(0.05)

    def test_out_of_range_observation_clamped(self, light_spec):
        dist = AttributeHistogram.from_spec(light_spec, n_buckets=10)
        dist.observe(-50.0)
        dist.observe(5000.0)  # lands in last bucket
        assert dist.probability(0.0, 1000.0) == pytest.approx(1.0)

    def test_invalid_bucket_count(self, light_spec):
        with pytest.raises(ValueError):
            AttributeHistogram.from_spec(light_spec, n_buckets=0)


class TestDistributionSet:
    def test_uniform_factory(self):
        ds = DistributionSet.uniform(standard_attributes(16))
        assert ds.probability("light", 0.0, 250.0) == pytest.approx(0.25)
        assert "temp" in ds

    def test_histogram_factory_learns(self):
        ds = DistributionSet.histograms(standard_attributes(16), n_buckets=10)
        for _ in range(1000):
            ds.observe("temp", 10.0)
        assert ds.probability("temp", 0.0, 20.0) > 0.9

    def test_constant_attribute_agrees_with_uniform(self):
        """A zero-width range is a point mass under either estimator."""
        specs = {"k": AttributeSpec("k", 5.0, 5.0)}
        for ds in (DistributionSet.uniform(specs),
                   DistributionSet.histograms(specs)):
            assert ds.probability("k", 0.0, 10.0) == 1.0
            assert ds.probability("k", 6.0, 10.0) == 0.0

    def test_unknown_attribute_raises(self):
        ds = DistributionSet.uniform(standard_attributes(16))
        with pytest.raises(KeyError):
            ds.probability("humidity", 0.0, 1.0)

    def test_observe_unknown_attribute_ignored(self):
        ds = DistributionSet.uniform(standard_attributes(16))
        ds.observe("humidity", 5.0)  # silently ignored
