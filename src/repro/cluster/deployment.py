"""A simulated multi-base-station deployment: one cluster per shard.

:class:`ClusterDeployment` stands up one full harness
:class:`~repro.harness.strategies.Deployment` per
:class:`~repro.cluster.partition.ClusterRegion` — each with its own sink,
routing tree, and radio simulation over that region's sub-topology — and
fronts them with a :class:`~repro.cluster.coordinator.ClusterCoordinator`
running on the simulators' shared virtual clock.

The per-shard simulations are independent event queues advanced in
lockstep (:meth:`run_until` advances every shard to the same instant
before the coordinator observes it), which models what the paper's
architecture implies for multiple deployments: disjoint radio domains
whose base stations talk to the root over a wired backhaul, not over the
sensor network.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from ..harness.strategies import Deployment, DeploymentConfig, Strategy
from ..service import DEFAULT_TTL_MS, OverloadConfig
from .coordinator import ClusterCoordinator
from .partition import FieldPartition


class ClusterDeployment:
    """K simulated clusters plus the tier-0 coordinator over them."""

    def __init__(self, partition: FieldPartition,
                 strategy: Strategy = Strategy.TTMQO, *,
                 seed: int = 0,
                 world: str = "uniform",
                 batch_window_ms: float = 0.0,
                 default_ttl_ms: float = DEFAULT_TTL_MS,
                 durability_dir: Optional[Union[str, Path]] = None,
                 overload: Optional[OverloadConfig] = None) -> None:
        if not strategy.uses_tier1:
            raise ValueError(
                f"cluster shards need a tier-1 optimizer (strategy "
                f"{strategy.name} has none); use TTMQO or BS_ONLY")
        self.partition = partition
        self.strategy = strategy
        #: One simulated cluster per region.  Every shard shares the seed,
        #: so the sensed world is the single-station world restricted to
        #: the region (readings are a pure function of node id and time).
        self.deployments: List[Deployment] = [
            Deployment(strategy,
                       DeploymentConfig(side=partition.side, seed=seed,
                                        world=world),
                       topology=partition.topologies[region.shard_id])
            for region in partition.regions]
        #: The lockstep virtual clock, in a cell the coordinator's clock
        #: reads: the coordinator does not hold the cluster, so dropping a
        #: closed cluster frees it without a cyclic collection.
        time = self._time = [0.0]
        self.coordinator = ClusterCoordinator(
            self.deployments, partition=partition,
            batch_window_ms=batch_window_ms,
            default_ttl_ms=default_ttl_ms,
            clock=lambda: time[0],
            durability_dir=durability_dir,
            overload=overload)

    # ------------------------------------------------------------------
    # Virtual time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The lockstep virtual clock shared by coordinator and shards."""
        return self._time[0]

    def run_until(self, t_end: float) -> None:
        """Advance every shard simulation to ``t_end``, then tick tier 0."""
        if t_end < self._time[0]:
            raise ValueError(
                f"cannot run backwards: now={self._time[0]}, t_end={t_end}")
        for deployment in self.deployments:
            deployment.sim.run_until(t_end)
        self._time[0] = t_end
        self.coordinator.tick(now_ms=t_end)

    # ------------------------------------------------------------------
    # Convenience pass-throughs
    # ------------------------------------------------------------------
    def pump(self, *, final: bool = False) -> int:
        """Merge shard result streams at the coordinator (see tier 0)."""
        return self.coordinator.pump(now_ms=self._time[0], final=final)

    def validate(self) -> None:
        self.coordinator.validate()

    def close(self) -> None:
        """Close every shard's simulation (see ``Deployment.close``)."""
        for deployment in self.deployments:
            deployment.close()
