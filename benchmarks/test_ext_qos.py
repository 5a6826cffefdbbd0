"""Extension: QoS-driven multi-query optimization (Section 5 future work).

Reliable-class queries get multipath row delivery in tier-2: the origin
duplicates its frame along a second DAG parent. This benchmark quantifies
the contract — completeness bought per extra frame — under increasing link
loss.
"""

from repro.core.qos import QoSClass
from repro.harness import DeploymentConfig, Strategy, print_table
from repro.harness.failures import expected_rows, row_completeness
from repro.harness.strategies import Deployment
from repro.queries import parse_query
from repro.sim import MacParams, MessageKind, RadioParams

from _util import run_once

LOSS_RATES = (0.0, 0.15, 0.3)
SEEDS = (19, 20, 21)


def _run(qos, loss_rate, seed, max_retries=None):
    config = DeploymentConfig(
        side=5, seed=seed,
        radio_params=RadioParams(loss_rate=loss_rate) if loss_rate else None,
        mac_params=(MacParams(max_retries=max_retries)
                    if max_retries is not None else None))
    deployment = Deployment(Strategy.INNET_ONLY, config)
    sim = deployment.sim
    sim.start()
    query = parse_query("SELECT light FROM sensors EPOCH DURATION 4096")
    sim.engine.schedule_at(300.0, deployment.register, query, qos)
    sim.run_until(80_000.0)
    epochs = [t for t in deployment.results.row_epochs(query.qid)
              if 8_000.0 < t < 76_000.0]
    expected = expected_rows(query, deployment.world, deployment.topology,
                             epochs)
    received = [(r.epoch_time, r.origin)
                for t in epochs
                for r in deployment.results.rows(query.qid, t)]
    return (row_completeness(received, expected),
            sim.trace.total_transmissions([MessageKind.RESULT]))


def _sweep():
    rows = []
    for loss in LOSS_RATES:
        stats = {}
        for qos in (QoSClass.BEST_EFFORT, QoSClass.RELIABLE):
            completeness, frames = zip(*(_run(qos, loss, s) for s in SEEDS))
            stats[qos] = (sum(completeness) / len(SEEDS),
                          sum(frames) / len(SEEDS))
        rows.append((loss, stats))
    return rows


def test_ext_qos_multipath(benchmark):
    rows = run_once(benchmark, _sweep)
    print_table(
        ["link loss", "best-effort completeness", "reliable completeness",
         "best-effort frames", "reliable frames"],
        [[f"{loss:.0%}",
          f"{stats[QoSClass.BEST_EFFORT][0]:.3f}",
          f"{stats[QoSClass.RELIABLE][0]:.3f}",
          f"{stats[QoSClass.BEST_EFFORT][1]:.0f}",
          f"{stats[QoSClass.RELIABLE][1]:.0f}"]
         for loss, stats in rows],
        title="Extension — QoS multipath delivery under link loss "
              "(25 nodes, 3 seeds)",
    )
    for loss, stats in rows:
        best = stats[QoSClass.BEST_EFFORT]
        reliable = stats[QoSClass.RELIABLE]
        # reliability never hurts completeness and always costs frames
        assert reliable[0] >= best[0] - 0.005
        assert reliable[1] > best[1]
    # at the highest loss the reliable class must still be near-perfect
    _, worst = rows[-1]
    assert worst[QoSClass.RELIABLE][0] >= 0.97


def _constrained_sweep():
    """Regime where ARQ alone cannot save the rows: one retry per hop.

    Broadcast-heavy mote MACs often cannot afford long retry chains; here
    multipath becomes the difference between losing 1 row in 3 and 1 in 4.
    """
    rows = []
    for loss in (0.3, 0.45):
        stats = {}
        for qos in (QoSClass.BEST_EFFORT, QoSClass.RELIABLE):
            completeness = [
                _run(qos, loss, seed, max_retries=1)[0] for seed in SEEDS
            ]
            stats[qos] = sum(completeness) / len(SEEDS)
        rows.append((loss, stats))
    return rows


def test_ext_qos_multipath_constrained_arq(benchmark):
    rows = run_once(benchmark, _constrained_sweep)
    print_table(
        ["link loss", "best-effort completeness", "reliable completeness"],
        [[f"{loss:.0%}",
          f"{stats[QoSClass.BEST_EFFORT]:.3f}",
          f"{stats[QoSClass.RELIABLE]:.3f}"]
         for loss, stats in rows],
        title="Extension — QoS multipath with single-retry MAC (ARQ cannot "
              "mask the loss)",
    )
    for loss, stats in rows:
        assert stats[QoSClass.RELIABLE] > stats[QoSClass.BEST_EFFORT] + 0.02