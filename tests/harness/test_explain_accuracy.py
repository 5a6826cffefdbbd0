"""Differential EXPLAIN-accuracy test: estimated vs. measured costs.

The planner's whole value proposition is that ``EXPLAIN`` prices a query
*before* admission with numbers you can trust.  This test holds it to
that: for a grid of Figure 3 / Figure 4 cells it computes the planner's
estimate from **pre-run artifacts only** (the committed statistics store
and calibration factor in ``tests/data/golden_planner_accuracy.json``),
then executes the cell at packet level and asserts the estimated
radio-seconds and joules land within the committed tolerance of the
measured :class:`~repro.harness.runner.RunResult` costs.

Calibration is per *domain* (static fig3 workloads vs. dynamic fig4
arrivals), measured once on one calibration cell per domain and applied
to every other cell — so the grid cells are genuine out-of-sample
predictions, not fits.  The golden file also pins every estimate and
measurement exactly, golden-trace style: any simulator or cost-model
drift fails loudly and forces a deliberate regeneration:

    PYTHONPATH=src python -m tests.harness.test_explain_accuracy

The whole grid runs in about half a second.
"""

import json
from pathlib import Path

from repro.harness import Strategy
from repro.harness.cells import WorkloadSpec
from repro.harness.runner import run_workload_live
from repro.harness.strategies import DeploymentConfig
from repro.obs import scoped
from repro.queries import fresh_qids
from repro.service import QueryPlanner, StatisticsStore, estimate_workload
from tests.service.sampled_statistics import collect_statistics

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "data" / "golden_planner_accuracy.json")

SIDE = 4
SEED = 11
STATIC_DURATION_MS = 60_000.0
DRAIN_MS = 4_000.0

#: Maximum relative error |estimate/measured - 1| the planner commits to
#: on out-of-sample cells.  Observed worst cases are ~0.17 (radio) and
#: ~0.18 (joules); the margin covers seed-to-seed variance without
#: letting a real cost-model regression hide.
TOLERANCE_RADIO = 0.25
TOLERANCE_JOULES = 0.25

#: (name, domain, WorkloadSpec) — the first cell of each domain is its
#: calibration cell (its radio ratio is 1.0 by construction; committing
#: it still pins the whole pipeline).
GRID = (
    ("fig3_A", "static", WorkloadSpec.named(
        "A", duration_ms=STATIC_DURATION_MS)),
    ("fig3_B", "static", WorkloadSpec.named(
        "B", duration_ms=STATIC_DURATION_MS)),
    ("fig3_C", "static", WorkloadSpec.named(
        "C", duration_ms=STATIC_DURATION_MS)),
    ("fig4_dyn_s7", "dynamic", WorkloadSpec(
        kind="dynamic", n_nodes=16, n_queries=6, concurrency=3.0, seed=7)),
    ("fig4_dyn_s13", "dynamic", WorkloadSpec(
        kind="dynamic", n_nodes=16, n_queries=6, concurrency=3.0, seed=13)),
    ("fig4_dyn_s29", "dynamic", WorkloadSpec(
        kind="dynamic", n_nodes=16, n_queries=6, concurrency=3.0, seed=29)),
)
CALIBRATION_CELLS = {"static": "fig3_A", "dynamic": "fig4_dyn_s7"}


def _spec_for(name):
    for cell_name, domain, spec in GRID:
        if cell_name == name:
            return domain, spec
    raise KeyError(name)


def _execute(workload_spec):
    """Run one TTMQO cell; return (measured dict, live deployment)."""
    config = DeploymentConfig(side=SIDE, seed=SEED)
    workload = workload_spec.build()
    live = run_workload_live(Strategy.TTMQO, workload, config, DRAIN_MS)
    deployment = live.deployment
    n_sensors = len(deployment.topology.node_ids) - 1
    measured = {
        "radio_s": deployment.sim.trace.total_tx_time_ms() / 1000.0,
        "joules": live.result.average_energy_mj * n_sensors / 1000.0,
    }
    return workload, measured, deployment


def _estimate(workload, deployment, stats, calibration):
    """Price the workload from pre-run artifacts + the cell's topology."""
    planner = QueryPlanner(deployment.optimizer.cost_model, stats=stats,
                           calibration=calibration)
    est = estimate_workload(workload, planner, alpha=deployment.config.alpha,
                            horizon_ms=workload.duration_ms + DRAIN_MS)
    return {"radio_s": est.radio_s, "joules": est.joules}


def _run_cell(name, stats_by_domain, factor_by_domain):
    domain, spec = _spec_for(name)
    with scoped(), fresh_qids():
        workload, measured, deployment = _execute(spec)
        estimated = _estimate(workload, deployment, stats_by_domain[domain],
                              factor_by_domain[domain])
    return {"domain": domain, "estimated": estimated, "measured": measured}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_explain_accuracy_full_grid():
    _check_cells(tuple(name for name, _, _ in GRID))


def _check_cells(names):
    golden = _golden()
    stats_by_domain = {
        domain: StatisticsStore.from_json(payload["statistics"])
        for domain, payload in golden["domains"].items()}
    factor_by_domain = {
        domain: payload["calibration_factor"]
        for domain, payload in golden["domains"].items()}
    assert golden["tolerance_radio"] == TOLERANCE_RADIO
    assert golden["tolerance_joules"] == TOLERANCE_JOULES

    for name in names:
        got = _run_cell(name, stats_by_domain, factor_by_domain)
        want = golden["cells"][name]

        # Golden-trace pin: estimates are pure functions of committed
        # artifacts, measurements of the deterministic simulator — both
        # must reproduce exactly.
        assert got["estimated"] == want["estimated"], name
        assert got["measured"] == want["measured"], name

        # The headline claim: the pre-admission price is within the
        # committed tolerance of the executed cost.
        for metric, tolerance in (("radio_s", TOLERANCE_RADIO),
                                  ("joules", TOLERANCE_JOULES)):
            est = got["estimated"][metric]
            meas = got["measured"][metric]
            assert meas > 0, (name, metric)
            error = abs(est / meas - 1.0)
            assert error <= tolerance, (
                f"{name}.{metric}: estimate {est:.4f} vs measured "
                f"{meas:.4f} — relative error {error:.3f} over the "
                f"documented {tolerance} tolerance")


def test_committed_statistics_round_trip():
    """The committed stores re-serialise bit-identically (fast guard)."""
    golden = _golden()
    for payload in golden["domains"].values():
        blob = payload["statistics"]
        assert StatisticsStore.from_json(blob).to_json() == blob


def _regenerate():
    domains = {}
    stats_by_domain = {}
    for domain, cal_name in CALIBRATION_CELLS.items():
        _, spec = _spec_for(cal_name)
        with scoped(), fresh_qids():
            workload, measured, deployment = _execute(spec)
            stats = collect_statistics(deployment)
            uncalibrated = _estimate(workload, deployment, stats, 1.0)
        factor = measured["radio_s"] / uncalibrated["radio_s"]
        domains[domain] = {
            "calibration_cell": cal_name,
            "calibration_factor": factor,
            "statistics": stats.to_json(),
        }
        stats_by_domain[domain] = stats

    factor_by_domain = {d: p["calibration_factor"]
                        for d, p in domains.items()}
    cells = {}
    for name, _, _ in GRID:
        cells[name] = _run_cell(name, stats_by_domain, factor_by_domain)
        print(f"{name}: est {cells[name]['estimated']} "
              f"meas {cells[name]['measured']}")

    payload = {
        "description": "EXPLAIN accuracy grid: TTMQO cells on a 4x4 grid "
                       "(seed 11); per-domain calibration measured on one "
                       "cell and applied out-of-sample to the rest.",
        "tolerance_radio": TOLERANCE_RADIO,
        "tolerance_joules": TOLERANCE_JOULES,
        "domains": domains,
        "cells": cells,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
