"""Ablations of TTMQO's design choices (DESIGN.md section 2).

Each ablation disables one tier-2 mechanism and measures what it buys:

* **sleep mode** — energy per node with/without Section 3.2.2's sleep;
* **shared acquisition** — physical sensor acquisitions under the GCD
  clock vs the baseline's per-query sampling (Section 3.2.1);
* **alpha extremes** — rebuild churn at alpha 0 vs the recommended 0.6
  (Algorithm 2).

All three run as cell grids through the sweep executor
(:func:`repro.harness.run_sweep`), so ``REPRO_SWEEP_WORKERS`` fans them
across processes with bit-identical results.
"""

from repro.core.innetwork import TTMQOParams
from repro.harness import (
    CellSpec,
    DeploymentConfig,
    Strategy,
    Tier1CellSpec,
    WorkloadSpec,
    print_table,
    run_sweep,
)

from _util import run_once, sweep_workers

DURATION_MS = 90_000.0
SEED = 11

#: Few matching nodes: most of the network can sleep.
SELECTIVE_QUERIES = (
    "SELECT light FROM sensors WHERE light > 900 EPOCH DURATION 4096",
    "SELECT temp FROM sensors WHERE temp > 90 EPOCH DURATION 8192",
)

SHARING_QUERIES = (
    "SELECT light FROM sensors EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors EPOCH DURATION 4096",
    "SELECT light FROM sensors EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
)


def _sleep_ablation():
    workload = WorkloadSpec.from_texts(SELECTIVE_QUERIES, DURATION_MS,
                                       description="selective")
    cells = [
        CellSpec(strategy=Strategy.TTMQO, workload=workload,
                 config=DeploymentConfig(
                     side=4, seed=SEED,
                     ttmqo_params=TTMQOParams(sleep_enabled=sleep_enabled)),
                 seed=SEED)
        for sleep_enabled in (True, False)
    ]
    report = run_sweep(cells, workers=sweep_workers())
    results = {}
    for sleep_enabled, run in zip((True, False), report.results()):
        results[sleep_enabled] = {
            "energy_mj": run.average_energy_mj,
            "avg_tx": run.average_transmission_time,
            "rows": run.result_rows,
        }
    return results


def test_ablation_sleep_mode(benchmark):
    results = run_once(benchmark, _sleep_ablation)
    print_table(
        ["sleep mode", "avg energy / node (mJ)", "avg tx time", "rows"],
        [[label, f"{r['energy_mj']:.0f}", f"{r['avg_tx']:.5f}", r["rows"]]
         for label, r in (("enabled", results[True]),
                          ("disabled", results[False]))],
        title="Ablation — Section 3.2.2 sleep mode (selective workload)",
    )
    # Sleep must save energy without losing results.
    assert results[True]["energy_mj"] < results[False]["energy_mj"] * 0.9
    assert results[True]["rows"] >= results[False]["rows"] * 0.9


def _acquisition_sharing():
    workload = WorkloadSpec.from_texts(SHARING_QUERIES, DURATION_MS)
    strategies = (Strategy.BASELINE, Strategy.INNET_ONLY, Strategy.TTMQO)
    cells = [
        CellSpec(strategy=strategy, workload=workload,
                 config=DeploymentConfig(side=4, seed=SEED), seed=SEED)
        for strategy in strategies
    ]
    report = run_sweep(cells, workers=sweep_workers())
    return {cell.spec.strategy: cell.result.acquisitions
            for cell in report.cells}


def test_ablation_shared_acquisition(benchmark):
    acquisitions = run_once(benchmark, _acquisition_sharing)
    print_table(
        ["strategy", "physical sensor acquisitions"],
        [[s.value, acquisitions[s]] for s in acquisitions],
        title="Ablation — shared data acquisition (Section 3.2.1)",
    )
    # The GCD clock's shared acquisition must sample far less than the
    # per-query baseline; tier-1 on top reduces it further or equally.
    assert acquisitions[Strategy.INNET_ONLY] < acquisitions[Strategy.BASELINE]
    assert acquisitions[Strategy.TTMQO] <= acquisitions[Strategy.INNET_ONLY] * 1.1


def _alpha_churn():
    alphas = (0.0, 0.6, 2.0)
    cells = [
        Tier1CellSpec(n_nodes=64, n_queries=400, concurrency=8, seed=6,
                      alpha=alpha)
        for alpha in alphas
    ]
    report = run_sweep(cells, workers=sweep_workers())
    return dict(zip(alphas, report.results()))


def test_ablation_alpha_extremes(benchmark):
    stats = run_once(benchmark, _alpha_churn)
    print_table(
        ["alpha", "abort/inject floods", "absorbed events", "benefit ratio"],
        [[a, s.network_operations, s.absorbed_operations,
          f"{s.benefit_ratio:.4f}"] for a, s in stats.items()],
        title="Ablation — Algorithm 2 alpha extremes",
    )
    assert stats[0.0].network_operations > stats[2.0].network_operations
    assert stats[0.6].benefit_ratio >= min(stats[0.0].benefit_ratio,
                                           stats[2.0].benefit_ratio)
