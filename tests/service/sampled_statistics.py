"""Sample a simulated deployment into a planner ``StatisticsStore``.

The planner prices queries from whatever statistics it is given; the
product never reads the simulated world's ground truth.  These tests do:
they sample the sensor world and the radio ledger of a finished run to
build the store the EXPLAIN-accuracy golden commits (regenerate it with
``python -m tests.harness.test_explain_accuracy``).
"""

from repro.sensors.distributions import DEFAULT_BUCKETS
from repro.service.planner import StatisticsStore, _us


def collect_statistics(deployment, *, n_buckets=DEFAULT_BUCKETS,
                       samples_per_node=4):
    """Sample a (finished or running) deployment into a statistics store.

    Reads the topology's level sizes, this simulation's radio ledger
    (``deployment.sim.trace``: per-kind frames and airtime, per-node
    radio-off time), and samples the sensor world at ``samples_per_node``
    evenly spaced virtual times per node to populate the attribute
    histograms — the Section 3.1.2 "statistics maintenance" loop, done
    from the simulator's own accounting instead of extra network traffic.
    """
    topology = deployment.topology
    world = deployment.world
    store = StatisticsStore.from_specs(
        (world.specs[name] for name in sorted(world.specs)), n_buckets)
    store.level_sizes = {k: n for k, n in topology.level_sizes().items()
                         if k >= 1}
    store.nodes = sum(store.level_sizes.values())
    trace = deployment.sim.trace
    elapsed_ms = max(trace.elapsed_ms, 0.0)
    store.node_time_us = store.nodes * _us(elapsed_ms)
    store.sleep_us = sum(
        _us(min(trace.node_stats(node).sleep_ms, elapsed_ms))
        for node in topology.node_ids if node != topology.base_station)
    airtime_ms = trace.airtime_by_kind()
    for kind, frames in trace.messages_by_kind().items():
        store.observe_frames(kind.value, frames, airtime_ms[kind])
    times = ([elapsed_ms * (i + 1) / (samples_per_node + 1)
              for i in range(samples_per_node)]
             if elapsed_ms > 0 else [0.0])
    names = sorted(world.specs)
    for node in topology.node_ids:
        if node == topology.base_station:
            continue
        for t in times:
            store.observe_row(
                {name: world.sample(node, name, t) for name in names})
    return store
