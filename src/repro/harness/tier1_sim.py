"""Pure tier-1 workload simulation (no network) for the Figure 4 sweeps.

Figure 4's metrics are properties of the base-station optimizer alone:

* **benefit ratio** — "we divide the sum of benefit by the sum of the
  cost() of every query"; we integrate modelled costs over time, so the
  ratio is the time-weighted fraction of modelled transmission cost the
  rewriting removes:
  ``1 - integral(cost of synthetic set) / integral(cost of user set)``;
* **average number of synthetic queries** — time-weighted mean of the
  synthetic-set size (Figure 4(c));
* **network operations** — abort/inject floods the optimizer triggered,
  versus arrivals/terminations absorbed entirely at the base station.

Because nothing is simulated at packet level, a 500-query workload runs in
milliseconds, matching the paper's experimental design.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.basestation import BaseStationOptimizer, CostModel, NetworkProfile
from ..sensors.distributions import DistributionSet
from ..sensors.field import standard_attributes
from ..workloads.spec import EventKind, Workload


@dataclass(frozen=True)
class Tier1RunStats:
    """Aggregated optimizer behaviour over one workload replay."""

    benefit_ratio: float
    average_synthetic_count: float
    max_synthetic_count: int
    average_user_count: float
    network_operations: int
    absorbed_operations: int
    final_synthetic_count: int
    #: Modelled transmission-time integrals (tx-ms) behind benefit_ratio.
    user_cost_area: float = 0.0
    synthetic_cost_area: float = 0.0
    operations_cost: float = 0.0

    @property
    def absorption_rate(self) -> float:
        """Fraction of workload events that caused no network traffic."""
        total = self.network_operations + self.absorbed_operations
        return self.absorbed_operations / total if total else 0.0


def default_cost_model(n_nodes: int, max_depth: int) -> CostModel:
    """Cost model over a synthetic uniform-depth profile (no network)."""
    profile = NetworkProfile.uniform_depth(n_nodes, max_depth)
    distributions = DistributionSet.uniform(standard_attributes(n_nodes))
    return CostModel(profile, distributions)


def run_tier1(workload: Workload, cost_model: CostModel,
              alpha: float = 0.6) -> Tier1RunStats:
    """Replay a workload through Algorithms 1/2 and integrate the metrics."""
    optimizer = BaseStationOptimizer(cost_model, alpha=alpha)
    optimizer.qids.claim(workload.max_qid())

    synthetic_cost_area = 0.0
    user_cost_area = 0.0
    synthetic_count_area = 0.0
    user_count_area = 0.0
    max_synthetic = 0
    last_t = workload.events[0].time_ms if workload.events else 0.0
    first_t = last_t

    for event in workload.events:
        dt = event.time_ms - last_t
        if dt > 0:
            synthetic_cost_area += optimizer.total_synthetic_cost() * dt
            user_cost_area += optimizer.total_user_cost() * dt
            synthetic_count_area += optimizer.synthetic_count() * dt
            user_count_area += optimizer.user_count() * dt
            last_t = event.time_ms
        if event.kind is EventKind.ARRIVE:
            optimizer.register(event.query)
        else:
            optimizer.terminate(event.query.qid)
        max_synthetic = max(max_synthetic, optimizer.synthetic_count())

    span = last_t - first_t
    operations_cost = optimizer.network_operations * cost_model.flood_cost()
    benefit_ratio = (
        1.0 - (synthetic_cost_area + operations_cost) / user_cost_area
        if user_cost_area > 0 else 0.0)
    return Tier1RunStats(
        benefit_ratio=benefit_ratio,
        average_synthetic_count=synthetic_count_area / span if span > 0 else 0.0,
        max_synthetic_count=max_synthetic,
        average_user_count=user_count_area / span if span > 0 else 0.0,
        network_operations=optimizer.network_operations,
        absorbed_operations=optimizer.absorbed_operations,
        final_synthetic_count=optimizer.synthetic_count(),
        user_cost_area=user_cost_area,
        synthetic_cost_area=synthetic_cost_area,
        operations_cost=operations_cost,
    )
