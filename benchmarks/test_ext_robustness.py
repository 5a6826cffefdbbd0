"""Extension: node failures and unreliable links (the paper's future work).

Section 5: "our multi-query optimization algorithm has not taken into
consideration of node failures and unreliable wireless transmissions".
This benchmark probes how the two designs *already* degrade:

* fail-stop outages on random relays — the baseline's fixed routing tree
  silently loses whatever a dead relay was carrying, while tier-2's DAG
  reroutes around unreachable parents (delivery-failure backoff), so TTMQO
  keeps near-perfect row completeness;
* independent per-link loss — acknowledged retransmission recovers both,
  but the strategy transmitting fewer frames pays proportionally less
  retransmission overhead (the compounding the paper observed at
  selectivity 1 in Figure 5).
"""

import json
import os
from pathlib import Path

from repro.harness import (
    CellSpec,
    DeploymentConfig,
    Strategy,
    WorkloadSpec,
    print_table,
    run_sweep,
)
from repro.harness.failures import FailureInjector, expected_rows, row_completeness
from repro.harness.strategies import Deployment
from repro.queries import parse_query
from repro.sim import GilbertElliottParams, RadioParams

from _util import run_once, sweep_workers

DURATION_MS = 120_000.0
SIDE = 6
SEED = 13

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_robustness.json"


def _extra_queries():
    """Overlapping companions so sharing has something to work with."""
    return [
        parse_query("SELECT light FROM sensors WHERE light > 300 "
                    "EPOCH DURATION 8192"),
        parse_query("SELECT light, temp FROM sensors WHERE light > 250 "
                    "EPOCH DURATION 8192"),
        parse_query("SELECT MAX(light) FROM sensors WHERE light > 300 "
                    "EPOCH DURATION 8192"),
    ]


def _run(strategy, n_outages=0, loss_rate=0.0, with_companions=False):
    config = DeploymentConfig(
        side=SIDE, seed=SEED,
        radio_params=RadioParams(loss_rate=loss_rate) if loss_rate else None)
    deployment = Deployment(strategy, config)
    sim = deployment.sim
    sim.start()
    query = parse_query("SELECT light FROM sensors WHERE light > 200 "
                        "EPOCH DURATION 4096")
    sim.engine.schedule_at(400.0, deployment.register, query)
    if with_companions:
        for offset, companion in enumerate(_extra_queries()):
            sim.engine.schedule_at(500.0 + 100.0 * offset,
                                   deployment.register, companion)
    injector = FailureInjector(sim, seed=5)
    if n_outages:
        injector.random_outages(n_outages, 16_000.0, (10_000.0, 110_000.0))
    sim.run_until(DURATION_MS)

    network_qid = deployment.network_query_for(query.qid).qid
    epochs = [t for t in deployment.results.row_epochs(network_qid)
              if 10_000.0 < t < 110_000.0]
    expected = expected_rows(query, deployment.world, deployment.topology,
                             epochs, injector.outages)
    received = [(r.epoch_time, r.origin)
                for t in epochs
                for r in deployment.results.rows(network_qid, t)]
    return {
        "completeness": row_completeness(received, expected),
        "avg_tx": sim.average_transmission_time(),
        "retransmissions": sim.trace.retransmissions,
    }


def _failure_sweep():
    rows = []
    for outages in (0, 6, 12):
        base = _run(Strategy.BASELINE, n_outages=outages)
        ttmqo = _run(Strategy.TTMQO, n_outages=outages)
        rows.append((outages, base, ttmqo))
    return rows


def _loss_sweep():
    # A multi-query workload: with a single query there is nothing to
    # share and TTMQO's headers/multicast acks are pure overhead (an
    # honest property the single-query failure sweep shows); the sharing
    # advantage — and its interaction with loss — needs companions.
    rows = []
    for loss in (0.0, 0.05, 0.15):
        base = _run(Strategy.BASELINE, loss_rate=loss, with_companions=True)
        ttmqo = _run(Strategy.TTMQO, loss_rate=loss, with_companions=True)
        rows.append((loss, base, ttmqo))
    return rows


def test_ext_node_failures(benchmark):
    rows = run_once(benchmark, _failure_sweep)
    print_table(
        ["relay outages", "baseline completeness", "TTMQO completeness"],
        [[o, f"{b['completeness']:.3f}", f"{t['completeness']:.3f}"]
         for o, b, t in rows],
        title="Extension — row completeness under fail-stop outages "
              "(36 nodes, 16 s outages)",
    )
    for outages, base, ttmqo in rows:
        assert ttmqo["completeness"] >= base["completeness"] - 1e-9
    # With many outages the DAG's advantage must be material.
    _, base, ttmqo = rows[-1]
    assert ttmqo["completeness"] >= 0.99
    assert base["completeness"] < ttmqo["completeness"]


def test_ext_lossy_links(benchmark):
    rows = run_once(benchmark, _loss_sweep)
    print_table(
        ["link loss", "baseline avg tx", "baseline retx",
         "TTMQO avg tx", "TTMQO retx"],
        [[f"{l:.0%}", f"{b['avg_tx']:.5f}", b["retransmissions"],
          f"{t['avg_tx']:.5f}", t["retransmissions"]]
         for l, b, t in rows],
        title="Extension — unreliable links (acknowledged retransmission)",
    )
    for loss, base, ttmqo in rows:
        assert ttmqo["avg_tx"] < base["avg_tx"]
    # Loss inflates both, but the baseline (more frames) pays more retries.
    assert rows[-1][1]["retransmissions"] > rows[-1][2]["retransmissions"]


# ----------------------------------------------------------------------
# Loss-rate sweep (parallel sweep executor -> BENCH_robustness.json)
# ----------------------------------------------------------------------

#: Deep correlated fades (~24% mean loss): the regime that actually
#: exhausts the MAC's retry budget and exercises the app-level recovery.
HARSH_FADES = GilbertElliottParams(p_good_to_bad=0.08, p_bad_to_good=0.2,
                                   loss_good=0.0, loss_bad=0.85)

LOSS_QUERY_TEXTS = (
    "SELECT light FROM sensors WHERE light > 200 EPOCH DURATION 4096",
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 8192",
    "SELECT light, temp FROM sensors WHERE light > 250 EPOCH DURATION 8192",
)


def _loss_grid():
    """(smoke?, loss points, cells): the sweep grid as plain cell specs.

    ``REPRO_ROBUSTNESS_SMOKE=1`` shrinks the grid (smaller network,
    shorter runs, two rates) for CI; the full grid regenerates the
    committed ``BENCH_robustness.json``.
    """
    smoke = os.environ.get("REPRO_ROBUSTNESS_SMOKE") == "1"
    rates = (0.0, 0.15) if smoke else (0.0, 0.05, 0.10, 0.15)
    side = 4 if smoke else SIDE
    duration = 60_000.0 if smoke else DURATION_MS
    points = [(f"bernoulli {rate:.0%}", RadioParams(loss_rate=rate))
              for rate in rates]
    points.append((f"burst ~{HARSH_FADES.mean_loss_rate:.0%}",
                   RadioParams(burst=HARSH_FADES)))
    workload = WorkloadSpec.from_texts(LOSS_QUERY_TEXTS, duration_ms=duration,
                                       description="robustness-loss")
    cells = [
        CellSpec(strategy=strategy, workload=workload,
                 config=DeploymentConfig(side=side, radio_params=radio),
                 seed=SEED)
        for _, radio in points
        for strategy in (Strategy.BASELINE, Strategy.TTMQO)
    ]
    return smoke, points, cells


def test_ext_loss_rate_sweep(benchmark):
    smoke, points, cells = _loss_grid()
    report = run_once(benchmark, run_sweep, cells, workers=sweep_workers())
    results = [cell.result for cell in report.cells]

    rows = []
    for index, (label, _) in enumerate(points):
        base = results[2 * index]
        ttmqo = results[2 * index + 1]
        rows.append((label, base, ttmqo))

    print_table(
        ["link loss", "baseline completeness", "TTMQO completeness",
         "baseline retx", "TTMQO retx"],
        [[label, f"{b.row_completeness:.4f}", f"{t.row_completeness:.4f}",
          b.retransmissions, t.retransmissions]
         for label, b, t in rows],
        title="Extension — row completeness vs link-loss rate "
              f"({'smoke' if smoke else 'full'} grid)",
    )

    for label, base, ttmqo in rows:
        # Graceful degradation: sharing never costs completeness.
        assert ttmqo.row_completeness >= base.row_completeness - 1e-9, label
    # Lossless cells are complete by construction.
    assert rows[0][1].row_completeness == 1.0
    assert rows[0][2].row_completeness == 1.0

    if not smoke:
        record = {
            "grid": f"{SIDE}x{SIDE} grid, seed {SEED}, "
                    f"{DURATION_MS / 1000:.0f} s, "
                    f"{len(LOSS_QUERY_TEXTS)} queries",
            "points": [
                {
                    "loss": label,
                    "baseline": {
                        "row_completeness": b.row_completeness,
                        "avg_tx": b.average_transmission_time,
                        "retransmissions": b.retransmissions,
                        "dropped_frames": b.dropped_frames,
                    },
                    "ttmqo": {
                        "row_completeness": t.row_completeness,
                        "avg_tx": t.average_transmission_time,
                        "retransmissions": t.retransmissions,
                        "dropped_frames": t.dropped_frames,
                    },
                }
                for label, b, t in rows
            ],
        }
        BENCH_PATH.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
