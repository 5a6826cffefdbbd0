"""Field partitioning: exact cover, valid topologies, reading parity."""

import pytest

from repro.cluster import FieldPartition
from repro.sensors import SensorWorld


# ----------------------------------------------------------------------
# Construction and cover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side,n_shards", [(4, 1), (4, 2), (4, 4),
                                           (8, 2), (8, 3), (8, 4), (8, 8)])
def test_sensor_sets_exactly_cover_the_single_grid(side, n_shards):
    """Union of shard sensor sets == the single-station sensor set."""
    partition = FieldPartition(side, n_shards)
    per_shard = [set(region.sensor_ids) for region in partition.regions]
    for a in range(n_shards):
        for b in range(a + 1, n_shards):
            assert not per_shard[a] & per_shard[b], "shards must be disjoint"
    union = set().union(*per_shard)
    assert union == set(range(1, side * side)), (
        "every sensing node of the single grid (all but the node-0 sink) "
        "must be sensed by exactly one shard")


def test_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        FieldPartition(1, 1)
    with pytest.raises(ValueError):
        FieldPartition(4, 0)
    with pytest.raises(ValueError):
        FieldPartition(4, 5)  # more shards than grid rows


def test_row_bands_are_contiguous_and_ordered():
    partition = FieldPartition(8, 3)
    spans = [region.row_span for region in partition.regions]
    assert spans[0][0] == 0
    assert spans[-1][1] == 7
    for (_, last), (first, _) in zip(spans, spans[1:]):
        assert first == last + 1


def test_every_shard_topology_is_connected_with_its_own_sink():
    partition = FieldPartition(8, 4)
    for region in partition.regions:
        topology = partition.topologies[region.shard_id]
        assert topology.base_station == region.sink_id
        # BFS levels exist for every node: the sink reaches the whole band.
        for node_id in topology.node_ids:
            assert topology.levels[node_id] is not None
        assert set(topology.node_ids) == \
            set(region.sensor_ids) | {region.sink_id}


def test_dedicated_sinks_do_not_collide_with_sensor_ids():
    partition = FieldPartition(8, 4)
    sensors = set(partition.all_sensor_ids())
    for region in partition.regions[1:]:
        assert region.sink_id not in sensors
        assert region.sink_id >= 64


# ----------------------------------------------------------------------
# Reading parity: the partitioned world senses the single-grid values
# ----------------------------------------------------------------------
def test_shard_worlds_sense_identical_values(grid8):
    """Readings are a pure function of (seed, attribute, node, time) —
    the same node senses bit-identical values whether its world was built
    over the full grid or over its shard's sub-topology."""
    seed = 42
    single = SensorWorld.uniform(grid8, seed=seed)
    partition = FieldPartition(8, 4, quality_seed=seed)
    for region in partition.regions:
        world = SensorWorld.uniform(partition.topologies[region.shard_id],
                                    seed=seed)
        for node_id in region.sensor_ids[::5]:
            for attribute in ("light", "temp", "nodeid", "x", "y"):
                for t in (1024.0, 4096.0, 65536.0):
                    assert world.sample(node_id, attribute, t) == \
                        single.sample(node_id, attribute, t)


def test_extents_partition_nodeid_space():
    partition = FieldPartition(8, 4)
    extents = partition.extents()
    for region, extent in zip(partition.regions, extents):
        assert extent.shard_id == region.shard_id
        lo, hi = region.sensor_ids[0], region.sensor_ids[-1]
        assert extent.node_ids.lo == float(lo)
        assert extent.node_ids.hi == float(hi)
    # Adjacent extents do not overlap in nodeid space.
    for a, b in zip(extents, extents[1:]):
        assert a.node_ids.hi < b.node_ids.lo


def test_shard_of_node_matches_regions():
    partition = FieldPartition(8, 3)
    for region in partition.regions:
        for node_id in region.sensor_ids:
            assert partition.shard_of_node(node_id) == region.shard_id
    with pytest.raises(KeyError):
        partition.shard_of_node(0)  # the node-0 sink senses nothing
