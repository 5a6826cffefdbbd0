"""Experiment runner: replay a workload against a strategy, collect metrics.

The headline metric is the paper's *average transmission time* — "the
average percentage of transmission time spent on each node for all running
queries over the simulation time" (Section 4.1) — counting result frames,
query propagation/abortion frames, maintenance beacons and retransmissions.

:class:`RunResult` is pure measured data: every field is a builtin scalar
(plus the :class:`Strategy` enum), so results pickle across process
boundaries and serialise to JSON for the sweep executor's on-disk cache
(:mod:`repro.harness.parallel`).  Callers that need the live simulation —
result logs, per-node traces, the optimizer state — use
:func:`run_workload_live`, which returns a :class:`LiveRun` carrying both
the result and the :class:`Deployment` handle.  Whoever holds a deployment
closes it once done reading it (:meth:`Deployment.close`): that frees the
run by reference counting, without waiting for a cyclic collection.
:func:`run_workload` closes its own; :func:`run_workload_live` hands the
open deployment to its caller.

At the end of every run the measured scalars are also published to the
current metrics registry: each :class:`RunResult` field becomes a
``run.*`` gauge (labelled by strategy and workload), the radio ledger
sets the ``sim.energy.*`` gauges as it computes
``RunResult.average_energy_mj``, and per-query mean row latencies are
exported — all the very values the ``RunResult`` carries (see
``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from ..sim.messages import MessageKind
from ..sim.trace import EnergyModel
from ..workloads.spec import EventKind, Workload
from .strategies import Deployment, DeploymentConfig, Strategy

#: Extra virtual time after the last workload event so in-flight frames land.
DEFAULT_DRAIN_MS = 4_000.0


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of one (strategy, workload) simulation.

    Pure data: picklable, JSON-serialisable, comparable field-by-field.
    """

    strategy: Strategy
    workload_description: str
    duration_ms: float
    average_transmission_time: float
    total_frames: int
    result_frames: int
    query_frames: int
    abort_frames: int
    maintenance_frames: int
    collisions: int
    retransmissions: int
    dropped_frames: int
    acquisitions: int
    #: Mean per-node energy (mJ) under the default :class:`EnergyModel`,
    #: base station excluded — the sleep-mode ablation's metric.
    average_energy_mj: float = 0.0
    #: Total rows the base station logged (user-visible data volume).
    result_rows: int = 0
    #: Mean fraction of ground-truth matching (epoch, origin) readings that
    #: reached the base station across acquisition user queries — the
    #: robustness extension's graceful-degradation metric.  1.0 when there
    #: is nothing to measure (lossless runs are complete by construction).
    row_completeness: float = 1.0

    def frames_by_kind(self) -> Dict[str, int]:
        return {
            "result": self.result_frames,
            "query": self.query_frames,
            "abort": self.abort_frames,
            "maintenance": self.maintenance_frames,
        }

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict (strategy by enum name); inverse of from_dict."""
        payload = asdict(self)
        payload["strategy"] = self.strategy.name
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunResult":
        data = dict(payload)
        data["strategy"] = Strategy[data["strategy"]]
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class LiveRun:
    """A completed run plus the live deployment it measured.

    The deployment holds the whole simulation (event queue, node apps,
    result logs) and therefore neither pickles nor belongs in a cache;
    it lives only in the process that ran the simulation.  Metric
    attributes delegate to :attr:`result`, so a ``LiveRun`` reads like a
    ``RunResult`` wherever only metrics are needed.
    """

    result: RunResult
    deployment: Deployment = field(repr=False)

    def __getattr__(self, name: str):
        # Only called for attributes not found on LiveRun itself.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.result, name)


def run_workload(
    strategy: Strategy,
    workload: Workload,
    config: Optional[DeploymentConfig] = None,
    drain_ms: float = DEFAULT_DRAIN_MS,
) -> RunResult:
    """Simulate ``workload`` under ``strategy`` and return the measurements.

    The deployment is closed once the result is built, so the run is freed
    on return (see :meth:`Deployment.close`).
    """
    live = run_workload_live(strategy, workload, config, drain_ms)
    live.deployment.close()
    return live.result


def run_workload_live(
    strategy: Strategy,
    workload: Workload,
    config: Optional[DeploymentConfig] = None,
    drain_ms: float = DEFAULT_DRAIN_MS,
) -> LiveRun:
    """Like :func:`run_workload` but also hand back the live deployment.

    The deployment is left open; the caller closes it when done with it.
    """
    config = config or DeploymentConfig()
    deployment = Deployment(strategy, config)
    if deployment.optimizer is not None:
        deployment.optimizer.qids.claim(workload.max_qid())
    sim = deployment.sim

    for event in workload.events:
        if event.kind is EventKind.ARRIVE:
            sim.engine.schedule_at(event.time_ms, deployment.register, event.query)
        else:
            sim.engine.schedule_at(event.time_ms, deployment.terminate,
                                   event.query.qid)

    sim.start()
    horizon = workload.duration_ms + drain_ms
    sim.run_until(horizon)

    trace = sim.trace
    result = RunResult(
        strategy=strategy,
        workload_description=workload.description,
        duration_ms=horizon,
        average_transmission_time=sim.average_transmission_time(),
        total_frames=trace.total_transmissions(),
        result_frames=trace.total_transmissions([MessageKind.RESULT]),
        query_frames=trace.total_transmissions([MessageKind.QUERY]),
        abort_frames=trace.total_transmissions([MessageKind.ABORT]),
        maintenance_frames=trace.total_transmissions([MessageKind.MAINTENANCE]),
        collisions=trace.collisions,
        retransmissions=trace.retransmissions,
        dropped_frames=trace.dropped_frames,
        acquisitions=deployment.total_acquisitions(),
        average_energy_mj=trace.average_energy_mj(
            sim.topology.node_ids, EnergyModel(),
            include_base_station=sim.topology.base_station),
        result_rows=deployment.results.total_rows(),
        row_completeness=deployment.row_completeness(),
    )
    _export_run_metrics(result, deployment)
    return LiveRun(result=result, deployment=deployment)


def _export_run_metrics(result: RunResult, deployment: Deployment) -> None:
    """Publish the finished run into the current metrics registry.

    Every numeric :class:`RunResult` field becomes a ``run.*`` gauge with
    the exact value the result carries.
    """
    obs = deployment.sim.obs
    labels = {"strategy": result.strategy.name,
              "workload": result.workload_description}
    for name, value in sorted(result.to_dict().items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        obs.registry.gauge(f"run.{name}",
                           help="RunResult field exported verbatim",
                           **labels).set(value)
    for qid in deployment.results.queries_seen():
        obs.registry.gauge(
            "run.query_mean_row_latency_ms",
            help="mean end-to-end row latency per query", unit="ms",
            qid=qid, **labels).set(deployment.results.mean_row_latency(qid))


def run_all_strategies(
    workload: Workload,
    config: Optional[DeploymentConfig] = None,
    strategies: Optional[tuple] = None,
    drain_ms: float = DEFAULT_DRAIN_MS,
) -> Dict[Strategy, RunResult]:
    """Run the same workload under several strategies (Figure 3's matrix)."""
    chosen = strategies or (Strategy.BASELINE, Strategy.BS_ONLY,
                            Strategy.INNET_ONLY, Strategy.TTMQO)
    return {s: run_workload(s, workload, config, drain_ms) for s in chosen}


def run_all_strategies_live(
    workload: Workload,
    config: Optional[DeploymentConfig] = None,
    strategies: Optional[tuple] = None,
    drain_ms: float = DEFAULT_DRAIN_MS,
) -> Dict[Strategy, LiveRun]:
    """Like :func:`run_all_strategies`, keeping each live deployment."""
    chosen = strategies or (Strategy.BASELINE, Strategy.BS_ONLY,
                            Strategy.INNET_ONLY, Strategy.TTMQO)
    return {s: run_workload_live(s, workload, config, drain_ms)
            for s in chosen}
