"""Golden-trace regression tests: the channel's bit-for-bit contract.

Two committed snapshots pin exact ``RunResult`` metrics, and any change to
the simulator, optimizer, or harness that moves *any* metric by *any*
amount fails here:

* ``tests/data/golden_fig3_a16.json`` — WORKLOAD_A on a 16-node (4x4)
  grid under all four strategies at the paper's 90 s horizon (seed 11),
  the configuration every Fig. 3 claim is anchored on;
* ``tests/data/golden_channel_cells.json`` — the cells where the radio
  channel's fan-out order and overlap bookkeeping matter most: a dynamic
  (Poisson arrival/termination) workload under BASELINE and TTMQO, and
  WORKLOAD_B under Bernoulli 0.05 + Gilbert–Elliott loss for all four
  strategies (both loss models consume RNG state per candidate receiver,
  so a reordered or skipped probe diverges).  This file was produced by
  the history-scanning reference channel that ``sim/radio.py`` carried
  until PR 15 (``fastpath=False`` at commit 7bffd7e), so it is the
  reference's verdict on the bitset channel, not the bitset channel's
  verdict on itself.

A failure forces a deliberate snapshot regeneration:

    PYTHONPATH=src python -m tests.harness.test_golden_trace

The snapshots also pin each cell's canonical JSON and derived seed, so a
cache-key or seed-derivation change is caught even when the simulation
itself is untouched.
"""

import json
from pathlib import Path

from repro.harness import canonical_cell_json, run_sweep
from repro.harness.cells import CellSpec, WorkloadSpec
from repro.harness.experiments import STRATEGY_ORDER, fig3_cells
from repro.harness.strategies import DeploymentConfig, Strategy
from repro.sim.radio import GilbertElliottParams, RadioParams

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN_PATH = DATA / "golden_fig3_a16.json"
CHANNEL_GOLDEN_PATH = DATA / "golden_channel_cells.json"

#: Loss-model deployment shared by the lossy channel cells.
LOSSY_RADIO = RadioParams(loss_rate=0.05, burst=GilbertElliottParams())


def _dynamic_cell(strategy: Strategy, seed: int = 23) -> CellSpec:
    """A packet-level Figure 4 analog: Poisson arrivals/terminations."""
    workload = WorkloadSpec(kind="dynamic", n_nodes=16, n_queries=6,
                            concurrency=3.0, seed=seed)
    return CellSpec(strategy=strategy, workload=workload,
                    config=DeploymentConfig(side=4, seed=seed), seed=seed)


def _lossy_cell(strategy: Strategy, seed: int = 31) -> CellSpec:
    workload = WorkloadSpec.named("B", duration_ms=60_000.0)
    return CellSpec(strategy=strategy, workload=workload,
                    config=DeploymentConfig(side=4, seed=seed,
                                            radio_params=LOSSY_RADIO),
                    seed=seed)


def _channel_cells():
    return [_dynamic_cell(Strategy.BASELINE), _dynamic_cell(Strategy.TTMQO),
            *(_lossy_cell(strategy) for strategy in STRATEGY_ORDER)]


def _current_cells(cells):
    report = run_sweep(cells, workers=0)
    return [
        {
            "strategy": completed.spec.strategy.name,
            "seed": completed.seed,
            "canonical_json": canonical_cell_json(completed.spec),
            "result": completed.result.to_dict(),
        }
        for completed in report.cells
    ]


def _assert_matches_golden(path, cells):
    golden = json.loads(path.read_text())
    current = _current_cells(cells)

    assert [c["strategy"] for c in current] == \
        [c["strategy"] for c in golden["cells"]]
    for got, want in zip(current, golden["cells"]):
        strategy = want["strategy"]
        assert got["canonical_json"] == want["canonical_json"], strategy
        assert got["seed"] == want["seed"], strategy
        for metric, value in want["result"].items():
            assert got["result"][metric] == value, f"{strategy}.{metric}"


def test_fig3_a16_matches_golden_trace():
    _assert_matches_golden(GOLDEN_PATH, fig3_cells("A", 4))


def test_channel_cells_match_reference_golden():
    _assert_matches_golden(CHANNEL_GOLDEN_PATH, _channel_cells())


def _regenerate():
    for path, description, cells in (
        (GOLDEN_PATH,
         "Golden trace: WORKLOAD_A, 16 nodes (4x4 grid), all "
         "four strategies, 90 s, seed 11 — fig3_cells('A', 4).",
         fig3_cells("A", 4)),
        (CHANNEL_GOLDEN_PATH,
         "Golden channel cells: dynamic workload (16 nodes, seed 23) under "
         "BASELINE and TTMQO, then WORKLOAD_B for 60 s (seed 31) under "
         "Bernoulli 0.05 + Gilbert-Elliott loss for all four strategies. "
         "First generated at commit 7bffd7e with fastpath=False, i.e. by "
         "the history-scanning object-path channel that PR 15 deleted; "
         "the bitset channel must reproduce it bit for bit.",
         _channel_cells()),
    ):
        payload = {
            "description": description,
            "canonical_version": 1,
            "cells": _current_cells(cells),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"regenerated {path}")


if __name__ == "__main__":
    _regenerate()
