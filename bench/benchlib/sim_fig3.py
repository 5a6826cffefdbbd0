"""``sim_fig3``: the paper's Figure 3 grid through the packet simulator alone."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List

from repro.harness import CellSpec, Deployment, DeploymentConfig, Strategy, \
    WorkloadSpec
from repro.sim.runtime import Simulation

from .base import Outcome, Stopwatch, sim_rates, timed_into
from .stats import Digest

NAME = "sim_fig3"
WHY = ("Figure 3 workloads A, B, C under all four strategies on the 64-node "
       "grid via CellSpec.run(): sim, tinydb, core.innetwork and obs do all "
       "the work, service, gateway and cluster none")

SIDE = 8
STRATEGIES = (Strategy.BASELINE, Strategy.BS_ONLY, Strategy.INNET_ONLY,
              Strategy.TTMQO)
QUICK_SIDE = 4
#: Virtual run length per cell.  32 s covers the 24576 ms hyper-period of
#: the workloads' epochs once and keeps a repetition near 3 host seconds.
DURATION_MS = 32_000.0
QUICK_DURATION_MS = 9_000.0


@dataclass
class Ctx:
    cells: List[CellSpec]
    build_s: List[float]


def make_inputs(seed: int, quick: bool) -> List[CellSpec]:
    duration = QUICK_DURATION_MS if quick else DURATION_MS
    return [CellSpec(strategy, WorkloadSpec.named(name, duration_ms=duration),
                     DeploymentConfig(side=QUICK_SIDE if quick else SIDE),
                     seed=seed)
            for name in "ABC" for strategy in STRATEGIES]


def setup(cells: List[CellSpec], tracer) -> Ctx:
    # CellSpec.run() builds its own deployment inside the timed region, so
    # there is nothing to prepare.  What a cell pays before its first event
    # is still worth a figure: build (and drop) each cell's deployment.
    # Work a later change moves from run_until into construction then shows
    # here as well as in wall_s.
    build_s: List[float] = []
    for cell in cells:
        with tracer.span("harness.deployment_build", "harness",
                         req=f"{cell.workload.name}/{cell.strategy.name}"
                         ), timed_into(build_s):
            Deployment(cell.strategy, cell.resolved_config())
    return Ctx(cells, build_s)


@contextmanager
def _run_until_spans(tracer):
    """Record a ``sim.run_until`` span for simulations the cell builds.

    The one place the benchmark swaps a class attribute: ``CellSpec.run()``
    constructs its ``Simulation`` itself, so no proxy can be handed in.
    """
    if not tracer.enabled:
        yield
        return
    original = Simulation.run_until

    def run_until(self, t_end):
        with tracer.span("sim.run_until", "sim"):
            return original(self, t_end)

    Simulation.run_until = run_until
    try:
        yield
    finally:
        Simulation.run_until = original


def run(ctx: Ctx, tracer) -> Outcome:
    results = []
    cell_s: List[float] = []
    with Stopwatch(tracer) as clock, _run_until_spans(tracer):
        for cell in ctx.cells:
            with tracer.span("harness.cell", "harness",
                             req=f"{cell.workload.name}/{cell.strategy.name}"
                             ), timed_into(cell_s):
                results.append(cell.run())

    digest = Digest()
    record: Dict[str, object] = {}
    att: Dict[str, Dict[str, float]] = {}
    for cell, result in zip(ctx.cells, results):
        key = f"{cell.workload.name}/{cell.strategy.name}"
        record[key] = result.to_dict()
        digest.add(key, sorted(record[key].items()))
        att.setdefault(cell.workload.name, {})[cell.strategy.name] = \
            result.average_transmission_time
    savings = [100.0 * (1.0 - by["TTMQO"] / by["BASELINE"])
               for by in att.values()]
    frames = sum(r.total_frames for r in results)
    virtual_s = sum(r.duration_ms for r in results) / 1000.0
    per_workload = {name: sum(s for c, s in zip(ctx.cells, cell_s)
                              if c.workload.name == name) for name in "ABC"}
    return Outcome(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        attempted=len(results), failed=0,
        digest=digest.hex(), record=record,
        values={"sim_speed_x": virtual_s / clock.wall_s},
        counts={
            "tx_saving_pct": sum(savings) / len(savings),
            "sim.frames": frames,
            "sim.collisions": sum(r.collisions for r in results),
            "sim.retransmissions": sum(r.retransmissions for r in results),
            "sim.acquisitions": sum(r.acquisitions for r in results),
        },
        detail={"cell_s": per_workload, "virtual_s": virtual_s})


def layer_metrics(ctx: Ctx, outcome: Outcome, tracer) -> Dict[str, float]:
    cell_s = outcome.detail["cell_s"]
    return {
        "harness.deployment_build_s": sum(ctx.build_s),
        **sim_rates(outcome.counts["sim.frames"],
                    tracer.busy_s("sim.run_until")),
        "sim.cell_A_s": cell_s["A"],
        "sim.cell_B_s": cell_s["B"],
        "sim.cell_C_s": cell_s["C"],
    }


def teardown(ctx: Ctx) -> None:
    pass


def query_inputs(cells: List[CellSpec]) -> list:
    return []       # the cells build their queries themselves; none is parsed
