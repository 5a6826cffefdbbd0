"""Unit tests for the synthetic sensed environment."""

import math

import pytest

from repro.sensors.field import (
    AttributeSpec,
    SensorWorld,
    standard_attributes,
)


class TestAttributeSpec:
    def test_span(self):
        assert AttributeSpec("x", 10.0, 110.0).span == 100.0

    def test_clamp(self):
        spec = AttributeSpec("x", 0.0, 10.0)
        assert spec.clamp(-5.0) == 0.0
        assert spec.clamp(15.0) == 10.0
        assert spec.clamp(5.0) == 5.0

    def test_standard_schema(self):
        specs = standard_attributes(16)
        assert set(specs) == {"nodeid", "light", "temp"}
        assert specs["nodeid"].hi == 15.0
        assert specs["light"].hi == 1000.0


class TestUniformWorld:
    @pytest.fixture
    def world(self, grid4):
        return SensorWorld.uniform(grid4, seed=9)

    def test_deterministic(self, grid4):
        a = SensorWorld.uniform(grid4, seed=9)
        b = SensorWorld.uniform(grid4, seed=9)
        for node in (1, 5, 15):
            assert a.sample(node, "light", 4096.0) == b.sample(node, "light", 4096.0)

    def test_seed_changes_values(self, grid4):
        a = SensorWorld.uniform(grid4, seed=1)
        b = SensorWorld.uniform(grid4, seed=2)
        samples_a = [a.sample(n, "light", 2048.0) for n in range(1, 16)]
        samples_b = [b.sample(n, "light", 2048.0) for n in range(1, 16)]
        assert samples_a != samples_b

    def test_values_within_range(self, world, grid4):
        for node in grid4.node_ids:
            for t in (0.0, 2048.0, 100_000.0):
                v = world.sample(node, "light", t)
                assert 0.0 <= v <= 1000.0

    def test_nodeid_is_identity(self, world):
        assert world.sample(7, "nodeid", 12345.0) == 7.0

    def test_unknown_attribute_rejected(self, world):
        with pytest.raises(KeyError):
            world.sample(1, "humidity", 0.0)

    def test_marginal_is_roughly_uniform(self, grid4):
        """Predicate range coverage must equal selectivity on average —
        the Figure 5 sweep depends on it."""
        world = SensorWorld.uniform(grid4, seed=4)
        samples = [
            world.sample(n, "light", 2048.0 * k)
            for n in range(1, 16) for k in range(200)
        ]
        in_range = sum(1 for v in samples if 200 <= v <= 700)
        assert in_range / len(samples) == pytest.approx(0.5, abs=0.03)

    def test_time_resolution_buckets(self, world):
        """Values are stable within a resolution bucket, changing across."""
        v1 = world.sample(3, "light", 100.0)
        v2 = world.sample(3, "light", 900.0)  # same 1024ms bucket
        v3 = world.sample(3, "light", 1500.0)  # next bucket
        assert v1 == v2
        assert v1 != v3

    def test_sample_many(self, world):
        row = world.sample_many(2, ["light", "temp", "nodeid"], 2048.0)
        assert set(row) == {"light", "temp", "nodeid"}


class TestCorrelatedWorld:
    @pytest.fixture
    def world(self, grid8):
        return SensorWorld.correlated(grid8, seed=11)

    def test_values_within_range(self, world, grid8):
        for node in grid8.node_ids:
            v = world.sample(node, "temp", 4096.0)
            assert 0.0 <= v <= 100.0

    def test_spatial_correlation(self, grid8, world):
        """Neighbouring nodes must read closer values than distant ones —
        the premise of Section 3.2.2's route sharing."""
        t = 4096.0
        near_pairs, far_pairs = [], []
        for u in grid8.node_ids:
            for v in grid8.node_ids:
                if v <= u:
                    continue
                du = abs(world.sample(u, "light", t) - world.sample(v, "light", t))
                (x1, y1), (x2, y2) = grid8.positions[u], grid8.positions[v]
                dist = math.hypot(x1 - x2, y1 - y2)
                if dist <= 20.0:
                    near_pairs.append(du)
                elif dist >= 100.0:
                    far_pairs.append(du)
        assert sum(near_pairs) / len(near_pairs) < sum(far_pairs) / len(far_pairs)

    def test_temporal_stability(self, world):
        """Readings drift slowly: adjacent epochs are closer than distant."""
        deltas_near = []
        deltas_far = []
        for node in range(1, 30):
            v0 = world.sample(node, "light", 0.0)
            deltas_near.append(abs(world.sample(node, "light", 2048.0) - v0))
            deltas_far.append(abs(world.sample(node, "light", 300_000.0) - v0))
        assert sum(deltas_near) < sum(deltas_far)

    def test_nodeid_still_identity(self, world):
        assert world.sample(42, "nodeid", 0.0) == 42.0

    def test_deterministic(self, grid8):
        a = SensorWorld.correlated(grid8, seed=5)
        b = SensorWorld.correlated(grid8, seed=5)
        assert a.sample(9, "temp", 8192.0) == b.sample(9, "temp", 8192.0)
