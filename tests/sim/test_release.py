"""A finished simulation is freed by reference counting once its owner
drops it: ``close()`` cuts every cycle a run builds, so no cell of a sweep
waits for a full cyclic collection to give its memory back."""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.cluster import ClusterDeployment, FieldPartition
from repro.harness import CellSpec, Deployment, DeploymentConfig, Strategy, \
    WorkloadSpec
from repro.queries.parser import parse_query
from repro.sim import EventQueue, PeriodicTimer, SimulationError

STRATEGIES = (Strategy.BASELINE, Strategy.BS_ONLY, Strategy.INNET_ONLY,
              Strategy.TTMQO)


@contextmanager
def _no_collection():
    """Run a block with the cyclic collector off, starting from no garbage."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cyclic_repro_garbage():
    """``repro`` objects only a cyclic collection would free, by type."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                        for o in gc.garbage
                        if type(o).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
    return found


def _deployment(strategy=Strategy.TTMQO):
    deployment = Deployment(strategy, DeploymentConfig(side=3, seed=2))
    deployment.sim.start()
    deployment.register(parse_query(
        "SELECT light FROM sensors WHERE light > 100 EPOCH DURATION 4096",
        qid=1))
    deployment.sim.run_until(12_000.0)
    return deployment


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
def test_a_finished_cell_leaves_no_cyclic_garbage(strategy):
    cell = CellSpec(strategy, WorkloadSpec.named("B", duration_ms=6_000.0),
                    DeploymentConfig(side=4), seed=1)
    with _no_collection():
        result = cell.run()
        assert _cyclic_repro_garbage() == []
    assert result.total_frames > 0


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
def test_a_closed_deployment_is_freed_on_del(strategy):
    with _no_collection():
        deployment = _deployment(strategy)
        sim = weakref.ref(deployment.sim)
        node = weakref.ref(deployment.sim.nodes[4])
        deployment.close()
        del deployment
        assert sim() is None and node() is None


def test_a_closed_cluster_is_freed_on_del():
    def cluster():
        built = ClusterDeployment(FieldPartition(4, 2, quality_seed=3),
                                  seed=3)
        co = built.coordinator
        co.submit(co.open_session("tenant"),
                  "SELECT MAX(light) FROM sensors EPOCH DURATION 4096")
        built.run_until(10_000.0)
        built.pump()
        return built

    with _no_collection():
        first = cluster()
        shard = first.deployments[1].sim
        sim, node = weakref.ref(shard), weakref.ref(next(iter(
            shard.nodes.values())))
        del shard
        # The registry's gauges read the last coordinator constructed;
        # a second cluster takes them over, so only ``first`` holds its
        # shards.
        second = cluster()
        first.close()
        del first
        assert sim() is None and node() is None
        second.close()
        with pytest.raises(SimulationError):
            second.deployments[0].sim.run_until(20_000.0)


def test_close_is_idempotent_and_keeps_results_readable():
    deployment = _deployment()
    rows = deployment.results.total_rows()
    frames = deployment.sim.trace.total_transmissions()
    assert rows > 0
    deployment.close()
    deployment.close()
    assert deployment.results.total_rows() == rows
    assert deployment.sim.trace.total_transmissions() == frames


def test_a_closed_simulation_refuses_to_run():
    deployment = _deployment()
    now = deployment.sim.now
    deployment.close()
    with pytest.raises(SimulationError):
        deployment.sim.run_until(now + 4_096.0)
    with pytest.raises(SimulationError):
        deployment.sim.engine.step()
    assert deployment.sim.now == now


def test_a_closed_queue_releases_a_timers_callback():
    class Owner:
        def tick(self):
            pass

    queue = EventQueue()
    owner = Owner()
    owner.timer = PeriodicTimer(queue, 5.0, owner.tick)
    queue.run_until(12.0)
    ref = weakref.ref(owner)
    with _no_collection():
        del owner
        assert ref() is not None        # owner -> timer -> firing -> owner
        queue.close()
        assert ref() is None
