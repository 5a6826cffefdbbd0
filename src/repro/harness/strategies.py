"""Strategy assembly: the four systems compared in the evaluation.

* ``BASELINE``   — TinyDB per-query execution, no sharing (Section 4.1);
* ``BS_ONLY``    — tier-1 rewriting at the base station, TinyDB execution;
* ``INNET_ONLY`` — user queries injected unchanged, tier-2 execution;
* ``TTMQO``      — both tiers (the paper's full scheme).

A :class:`Deployment` bundles the simulation with a uniform control
interface (``register``/``terminate``) so the runner can replay any
workload against any strategy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.basestation import (
    BaseStationOptimizer,
    CostModel,
    DeliveryCursor,
    NetworkProfile,
    ResultMapper,
)
from ..core.qos import QoSClass, QoSRegistry
from ..core.innetwork import TTMQOBaseStationApp, TTMQONodeApp, TTMQOParams
from ..queries.ast import Query
from ..sensors.distributions import DistributionSet
from ..sensors.field import SensorWorld
from ..sim.mac import MacParams
from ..sim.network import Topology
from ..sim.radio import RadioParams
from ..sim.runtime import Simulation
from ..tinydb.basestation import TinyDBBaseStationApp
from ..tinydb.node_processor import TinyDBNodeApp, TinyDBParams
from ..tinydb.results import ResultLog
from ..tinydb.routing_tree import RoutingTree


class Strategy(enum.Enum):
    """The four evaluated execution strategies."""

    BASELINE = "baseline"
    BS_ONLY = "base-station only"
    INNET_ONLY = "in-network only"
    TTMQO = "ttmqo"

    @property
    def uses_tier1(self) -> bool:
        return self in (Strategy.BS_ONLY, Strategy.TTMQO)

    @property
    def uses_tier2(self) -> bool:
        return self in (Strategy.INNET_ONLY, Strategy.TTMQO)


@dataclass
class DeploymentConfig:
    """Everything needed to stand up one simulated deployment."""

    side: int = 4
    seed: int = 0
    world: str = "uniform"  # "uniform" | "correlated"
    alpha: float = 0.6
    #: Tier-1 selectivity statistics: "uniform" assumes uniform readings
    #: (the paper's experimental setting); "histogram" maintains per-
    #: attribute equi-width histograms from the rows the base station
    #: receives (the Section 3.1.2 statistics-maintenance loop).
    statistics: str = "uniform"
    radio_params: Optional[RadioParams] = None
    mac_params: Optional[MacParams] = None
    tinydb_params: Optional[TinyDBParams] = None
    ttmqo_params: Optional[TTMQOParams] = None

    def build_world(self, topology: Topology) -> SensorWorld:
        if self.world == "uniform":
            return SensorWorld.uniform(topology, seed=self.seed)
        if self.world == "correlated":
            return SensorWorld.correlated(topology, seed=self.seed)
        raise ValueError(f"unknown world kind {self.world!r}")


class Deployment:
    """One assembled simulation with a strategy-specific control plane."""

    def __init__(self, strategy: Strategy, config: DeploymentConfig,
                 topology: Optional[Topology] = None) -> None:
        self.strategy = strategy
        self.config = config
        #: An explicit topology overrides the default grid — the cluster
        #: harness deploys one sub-topology (with its own sink) per shard.
        self.topology = (topology if topology is not None
                         else Topology.grid(config.side,
                                            quality_seed=config.seed))
        self.world = config.build_world(self.topology)
        self.tree = RoutingTree.build(self.topology)
        self.sim = Simulation(self.topology, world=self.world,
                              radio_params=config.radio_params,
                              mac_params=config.mac_params, seed=config.seed)
        self.user_queries: Dict[int, Query] = {}
        self.optimizer: Optional[BaseStationOptimizer] = None

        self.distributions: Optional[DistributionSet] = None
        if strategy.uses_tier1:
            profile = NetworkProfile.from_topology(
                self.topology, config.radio_params)
            if config.statistics == "histogram":
                self.distributions = DistributionSet.histograms(self.world.specs)
            elif config.statistics == "uniform":
                self.distributions = DistributionSet.uniform(self.world.specs)
            else:
                raise ValueError(
                    f"unknown statistics kind {config.statistics!r}")
            self.optimizer = BaseStationOptimizer(
                CostModel(profile, self.distributions), alpha=config.alpha)

        if strategy.uses_tier2:
            self.bs = TTMQOBaseStationApp(
                self.world, self.tree, config.tinydb_params, seed=config.seed,
                ttmqo_params=config.ttmqo_params)
            self.sim.install_at(self.topology.base_station, self.bs)
            params = config.ttmqo_params
            self.sim.install(
                lambda node: TTMQONodeApp(self.world, params, seed=config.seed))
        else:
            self.bs = TinyDBBaseStationApp(
                self.world, self.tree, config.tinydb_params, seed=config.seed)
            self.sim.install_at(self.topology.base_station, self.bs)
            tdb_params = config.tinydb_params
            self.sim.install(
                lambda node: TinyDBNodeApp(self.world, self.tree, tdb_params,
                                           seed=config.seed))

        if self.optimizer is not None and config.statistics == "histogram":
            distributions = self.distributions

            def _observe(values, _d=distributions):
                for attribute, value in values.items():
                    _d.observe(attribute, value)

            self.bs.row_observers.append(_observe)

        # QoS extension: the base station floods each query's reliability
        # class, derived by tier-1 when it is present.
        if self.optimizer is not None:
            self.qos_registry = self.optimizer.qos_registry
        else:
            self.qos_registry = QoSRegistry()
        self.bs.qos_registry = self.qos_registry

    def close(self) -> None:
        """Free the simulation once nothing more will run (idempotent).

        Results, the optimizer and the radio ledger stay readable; the
        simulation only stops holding itself in reference cycles (see
        :meth:`Simulation.close`), so dropping the deployment frees it.
        """
        self.sim.close()

    # ------------------------------------------------------------------
    # Control plane (called at workload event times)
    # ------------------------------------------------------------------
    def register(self, query: Query,
                 qos: QoSClass = QoSClass.BEST_EFFORT) -> None:
        """A user query arrives at the base station."""
        self.user_queries[query.qid] = query
        if self.optimizer is None:
            self.qos_registry.register_user(query.qid, qos)
            self.qos_registry.derive_synthetic(query.qid, [query.qid])
            self.bs.inject(query)
            return
        actions = self.optimizer.register(query, qos=qos)
        for qid in actions.abort_qids:
            self.bs.abort(qid)
        for synthetic in actions.inject:
            self.bs.inject(synthetic)

    def register_passthrough(self, query: Query,
                             qos: QoSClass = QoSClass.BEST_EFFORT) -> None:
        """Admit a query unmerged (circuit-breaker degraded mode).

        Same control-plane contract as :meth:`register`, but tier-1 runs
        :meth:`BaseStationOptimizer.register_passthrough` — no Algorithm 1
        — so admission stays available when full optimization is failing.
        """
        self.user_queries[query.qid] = query
        if self.optimizer is None:
            self.register(query, qos=qos)
            return
        actions = self.optimizer.register_passthrough(query, qos=qos)
        for qid in actions.abort_qids:
            self.bs.abort(qid)
        for synthetic in actions.inject:
            self.bs.inject(synthetic)

    def terminate(self, qid: int) -> None:
        """A user query is terminated by its user."""
        self.user_queries.pop(qid, None)
        if self.optimizer is None:
            self.qos_registry.forget_user(qid)
            self.qos_registry.forget_synthetic(qid)
            self.bs.abort(qid)
            return
        actions = self.optimizer.terminate(qid)
        for aborted in actions.abort_qids:
            self.bs.abort(aborted)
        for synthetic in actions.inject:
            self.bs.inject(synthetic)

    def reconcile_queries(self) -> "tuple[int, int]":
        """Make the network match tier-1's table after a service recovery.

        Returns ``(reinjected, zombies_aborted)``: synthetic queries the
        recovered table flags RUNNING but the network is not running are
        (re-)disseminated, and network queries the table no longer knows
        are aborted — the zombie-query sweep the recovery invariants
        assert.  Also resyncs :attr:`user_queries` from the table so
        :meth:`row_completeness` scores the recovered workload.
        """
        if self.optimizer is None:
            raise ValueError("reconcile_queries needs a tier-1 optimizer")
        from ..core.basestation.query_table import SyntheticStatus
        table = self.optimizer.table
        self.user_queries = {qid: record.query
                             for qid, record in table.user.items()}
        wanted = {record.qid: record.query
                  for record in table.synthetic.values()
                  if record.flag is SyntheticStatus.RUNNING}
        running = self.bs.running_queries()
        reinjected = 0
        for qid in sorted(set(wanted) - set(running)):
            # An aborted qid cannot be re-injected (generations would
            # collide in the network); that only happens for operations
            # torn out of the WAL, which recovery replays as never-ran.
            if qid not in self.bs.aborted:
                self.bs.inject(wanted[qid])
                reinjected += 1
        zombies = sorted(set(running) - set(wanted))
        for qid in zombies:
            self.bs.abort(qid)
        return reinjected, len(zombies)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def results(self) -> ResultLog:
        return self.bs.results

    def network_query_for(self, user_qid: int) -> Query:
        """The query actually running in the network for a user query."""
        if self.optimizer is None:
            return self.user_queries[user_qid]
        return self.optimizer.synthetic_for(user_qid)

    def mapper(self) -> ResultMapper:
        return ResultMapper(self.results)

    def user_answer_rows(self, user_qid: int):
        """All answer rows a user acquisition query received over its life.

        In dynamic workloads re-optimization remaps a user query across
        several synthetic queries; this unions the mapped rows from every
        synthetic query that ever served it (deduplicated by
        (epoch, origin) — handover epochs can be reported by both).
        """
        user = self.user_queries.get(user_qid)
        if user is None:
            raise KeyError(f"unknown or terminated user query {user_qid}")
        if self.optimizer is None:
            return self.results.rows(user_qid)
        if not user.is_acquisition:
            raise ValueError(f"query {user_qid} is not an acquisition query")
        merged = self.mapper().unseen(
            user, self.optimizer.synthetic_history(user_qid), DeliveryCursor())
        merged.sort(key=lambda r: (r.epoch_time, r.origin))
        return merged

    def recovery_counts(self) -> Dict[str, int]:
        """This simulation's ``recovery.*`` tally by family, over labels."""
        counts: Dict[str, int] = {}
        for (name, _), count in self.sim.obs.recovery.items():
            counts[name] = counts.get(name, 0) + count
        return counts

    def row_completeness(self, outages=None) -> float:
        """Mean delivery completeness across live acquisition user queries.

        For each acquisition user query, the fraction of ground-truth
        matching (epoch, origin) readings — over the epochs its network
        query actually observed — that reached the base station (see
        :func:`repro.harness.failures.row_completeness`).  ``outages``
        (an iterable of :class:`~repro.harness.failures.Outage`) excludes
        failed-at-the-epoch origins from the ground truth, so the score
        measures routing loss, not source loss.  Queries that produced no
        epochs (or have no expected rows) are skipped; with nothing to
        measure the score is 1.0 — lossless runs report perfect
        completeness by construction.
        """
        from .failures import expected_rows, row_completeness as _score
        scores = []
        for user_qid in sorted(self.user_queries):
            user = self.user_queries[user_qid]
            if not user.is_acquisition:
                continue
            try:
                network = self.network_query_for(user_qid)
            except KeyError:
                continue
            # A shared synthetic query runs at the GCD epoch; the user only
            # answers at its own epoch multiples (result-mapper semantics),
            # so ground truth is restricted to the epochs the user fires at.
            # The final epoch is excluded unless a whole further epoch has
            # elapsed — its rows may legitimately still be in flight, and
            # counting them would report routing loss that never happened.
            now = self.sim.engine.now
            epochs = [t for t in self.results.row_epochs(network.qid)
                      if user.fires_at(t) and t + user.epoch_ms <= now]
            if not epochs:
                continue
            expected = expected_rows(user, self.world, self.topology, epochs,
                                     outages)
            if not expected:
                continue
            received = [(row.epoch_time, row.origin)
                        for row in self.user_answer_rows(user_qid)]
            scores.append(_score(received, expected))
        return sum(scores) / len(scores) if scores else 1.0

    def total_acquisitions(self) -> int:
        """Physical sensor acquisitions across all nodes."""
        total = 0
        for node in self.sim.nodes.values():
            app = node.app
            sampler = getattr(app, "sampler", None)
            if sampler is not None:
                total += sampler.acquisitions
        return total
