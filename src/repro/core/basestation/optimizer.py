"""Tier-1 facade: the base-station optimizer.

Applications hand user queries to :meth:`BaseStationOptimizer.register` /
:meth:`BaseStationOptimizer.terminate`; the optimizer maintains the query
table via Algorithms 1 and 2 and returns the :class:`NetworkActions` (query
abortions and injections) that must be applied to the sensor network —
"corresponding query abortion and injection operations will be invoked to
complete the whole process".

The optimizer is pure (no simulator dependency), which is what lets the
Figure 4 experiments sweep 500-query workloads in milliseconds.

Every instance records its rewriting activity into the metrics registry
current at construction time (``optimizer.*`` families, see
``docs/observability.md``): step counters are incremented inline, while
the query-table gauges are lazy callbacks evaluated only when a snapshot
is taken, so the hot path stays cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...obs import get_registry
from ...queries.ast import QidAllocator, Query, query_from_dict, query_to_dict
from ..qos import QoSClass, QoSRegistry
from .cost_model import CostModel
from .insertion import insert_query
from .query_table import QueryTable, SyntheticQueryRecord, SyntheticStatus
from .rewriter import new_synthetic_record
from .termination import synthetic_benefit, terminate_query

#: Default rewriting aggressiveness; the paper's sweep peaks at 0.6.
DEFAULT_ALPHA = 0.6


@dataclass(frozen=True)
class NetworkActions:
    """Abort/inject operations one optimizer step asks the network to run."""

    abort_qids: tuple
    inject: tuple

    @property
    def is_noop(self) -> bool:
        """True when the step was absorbed entirely at the base station."""
        return not self.abort_qids and not self.inject

    @property
    def n_operations(self) -> int:
        return len(self.abort_qids) + len(self.inject)


class BaseStationOptimizer:
    """Maintains the synthetic query set for a dynamic user-query workload."""

    def __init__(self, cost_model: CostModel, alpha: float = DEFAULT_ALPHA) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative (got {alpha})")
        self.cost_model = cost_model
        self.alpha = alpha
        self.table = QueryTable()
        #: Issues this optimizer's synthetic qids, and the user qids of a
        #: query service in front of it: qids name queries in one table.
        self.qids = QidAllocator()
        #: Serializes table mutations and snapshot reads.  Algorithms 1/2
        #: mutate several records per step; a concurrent reader (or second
        #: writer) mid-step would observe a table that violates
        #: :meth:`QueryTable.validate`.  The service layer calls into the
        #: optimizer from many client threads, so the facade methods take
        #: this re-entrant lock; single-threaded replays pay only an
        #: uncontended acquire.
        self.lock = threading.RLock()
        #: QoS extension: user/synthetic reliability classes; synthetic
        #: classes are re-derived after every table change.
        self.qos_registry = QoSRegistry()
        #: user qid -> ordered synthetic qids that served it over time.
        #: Re-optimization remaps user queries; answering "all my results"
        #: needs the whole history, not just the current mapping.
        self._mapping_history: Dict[int, List[int]] = {}
        #: synthetic qid -> query snapshot (synthetic records are removed
        #: from the table on abort, but mapping history still needs them).
        self._synthetic_snapshots: Dict[int, Query] = {}
        #: Cumulative count of abort/inject operations sent to the network.
        self.network_operations = 0
        #: Registrations/terminations fully absorbed at the base station.
        self.absorbed_operations = 0
        self._init_metrics(get_registry())

    def _init_metrics(self, registry) -> None:
        self._m_registrations = registry.counter(
            "optimizer.registrations_total",
            help="user queries admitted (Algorithm 1 runs)")
        self._m_terminations = registry.counter(
            "optimizer.terminations_total",
            help="user queries retired (Algorithm 2 runs)")
        self._m_network_ops = registry.counter(
            "optimizer.network_ops_total",
            help="abort/inject operations sent to the network")
        self._m_absorbed = registry.counter(
            "optimizer.absorbed_ops_total",
            help="steps absorbed entirely at the base station")
        # Table-state gauges are lazy: evaluated at snapshot time only.
        # With several optimizers in one registry the last constructed
        # instance owns the gauges (one optimizer per deployment in
        # practice).
        registry.gauge("optimizer.user_queries",
                       help="currently registered user queries"
                       ).set_fn(self.user_count)
        registry.gauge("optimizer.synthetic_queries",
                       help="currently running synthetic queries"
                       ).set_fn(self.synthetic_count)
        registry.gauge("optimizer.total_benefit",
                       help="modelled per-ms cost saving of the rewrite",
                       unit="cost/ms").set_fn(self.total_benefit)

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def register(self, query: Query,
                 qos: QoSClass = QoSClass.BEST_EFFORT) -> NetworkActions:
        """Admit a new user query (Algorithm 1).  Returns network actions.

        ``qos`` is the extension hook: a RELIABLE user query makes every
        synthetic query serving it reliable (multipath delivery in tier 2).

        A previously terminated qid may be re-registered; it is treated as
        a brand-new arrival.  The qid allocator moves past the user qid,
        so no synthetic query issued afterwards shares it.
        """
        with self.lock:
            before = self._running_qids()
            self.qids.claim(query.qid)
            self.table.add_user(query)
            self.qos_registry.register_user(query.qid, qos)
            insert_query(query, {query.qid: query}, self.table,
                         self.cost_model, self.qids)
            self.qos_registry.sync_with_table(self.table)
            self._m_registrations.inc()
            return self._diff(before)

    def register_passthrough(self, query: Query,
                             qos: QoSClass = QoSClass.BEST_EFFORT
                             ) -> NetworkActions:
        """Admit ``query`` without running Algorithm 1 (degraded mode).

        The query becomes its own synthetic query, 1:1 — no candidate
        scan, no cost-model evaluation, no merging.  The service tier's
        circuit breaker falls back to this path when full optimization is
        slow or failing: admission keeps working (degraded, never down) at
        the price of an unshared injection.  The resulting table state is
        ordinary — :meth:`terminate` and later :meth:`register` calls
        treat the pass-through synthetic like any other record.
        """
        with self.lock:
            before = self._running_qids()
            self.qids.claim(query.qid)
            self.table.add_user(query)
            self.qos_registry.register_user(query.qid, qos)
            record = new_synthetic_record(query, {query.qid: query},
                                          self.qids)
            self.table.add_synthetic(record)
            self.qos_registry.sync_with_table(self.table)
            self._m_registrations.inc()
            return self._diff(before)

    def terminate(self, user_qid: int) -> NetworkActions:
        """Retire a user query (Algorithm 2).  Returns network actions."""
        with self.lock:
            if user_qid not in self.table.user:
                raise KeyError(
                    f"unknown user query {user_qid}: never registered or "
                    f"already terminated")
            before = self._running_qids()
            terminate_query(user_qid, self.table, self.cost_model, self.alpha,
                            self.qids)
            self.qos_registry.forget_user(user_qid)
            self.qos_registry.sync_with_table(self.table)
            self._m_terminations.inc()
            return self._diff(before)

    # ------------------------------------------------------------------
    # Introspection (metrics for the Figure 4 experiments)
    # ------------------------------------------------------------------
    def synthetic_queries(self) -> List[Query]:
        """Currently running synthetic queries, ascending qid."""
        with self.lock:
            return [r.query for r in sorted(self.table.synthetic.values(),
                                            key=lambda r: r.qid)]

    def synthetic_count(self) -> int:
        return len(self.table.synthetic)

    def user_count(self) -> int:
        return len(self.table.user)

    def synthetic_for(self, user_qid: int) -> Query:
        """The synthetic query currently serving a user query."""
        with self.lock:
            return self.table.synthetic_for(user_qid).query

    def synthetic_history(self, user_qid: int) -> List[Query]:
        """Every synthetic query that served a user query, in order.

        Includes already-aborted synthetic queries; a complete answer for a
        long-lived user query in a dynamic workload unions the results of
        all of them (see :meth:`ResultMapper` and
        ``Deployment.user_answer_rows``).
        """
        with self.lock:
            return [self._synthetic_snapshots[qid]
                    for qid in self._mapping_history.get(user_qid, [])]

    def total_synthetic_cost(self) -> float:
        """Modelled per-ms transmission cost of the running synthetic set."""
        with self.lock:
            return sum(record.cost(self.cost_model)
                       for _, record in sorted(self.table.synthetic.items()))

    def total_user_cost(self) -> float:
        """Modelled cost had every user query run unoptimized."""
        with self.lock:
            return sum(
                self.table.synthetic_for(qid).member_costs(self.cost_model)[qid]
                for qid in self.table.user)

    def total_benefit(self) -> float:
        """Current modelled saving: sum of per-synthetic-query benefits."""
        with self.lock:
            return sum(synthetic_benefit(r, self.cost_model)
                       for r in self.table.synthetic.values())

    # ------------------------------------------------------------------
    # Durability (service-tier snapshots)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """A JSON-safe snapshot of everything :meth:`restore_state` needs.

        Covers the query table (synthetic merges included), the
        user→synthetic mapping history with its query snapshots, the QoS
        classes, and the cumulative operation counters — the full tier-1
        state a restarted base station must carry to be indistinguishable
        from one that never crashed.
        """
        with self.lock:
            return {
                "table": self.table.to_dict(),
                "mapping_history": {
                    str(qid): list(history)
                    for qid, history in sorted(self._mapping_history.items())
                },
                "synthetic_snapshots": {
                    str(qid): query_to_dict(query)
                    for qid, query in sorted(self._synthetic_snapshots.items())
                },
                "user_qos": {
                    str(qid): self.qos_registry.user_class(qid).value
                    for qid in sorted(self.table.user)
                },
                "network_operations": self.network_operations,
                "absorbed_operations": self.absorbed_operations,
            }

    def reset(self) -> None:
        """Drop every query: back to the empty post-construction state.

        Service recovery replays the WAL against a blank tier-1.  A fresh
        process gets that for free, but a recovery that reuses an
        in-memory backend (in-process crash tests) still holds
        the pre-crash table, which replay would double-register —
        :meth:`QueryService.recover` clears it first.  The QoS registry
        is reset in place because deployments alias it.
        """
        with self.lock:
            self.table = QueryTable()
            self.qids = QidAllocator()
            self.qos_registry.reset()
            self._mapping_history = {}
            self._synthetic_snapshots = {}
            self.network_operations = 0
            self.absorbed_operations = 0

    def restore_state(self, state: dict) -> None:
        """Replace this optimizer's state with a :meth:`snapshot_state`.

        Intended for a freshly constructed optimizer during service
        recovery; the table is validated after the swap.
        """
        with self.lock:
            self.table = QueryTable.from_dict(state["table"])
            self._mapping_history = {
                int(qid): list(history)
                for qid, history in state["mapping_history"].items()}
            self._synthetic_snapshots = {
                int(qid): query_from_dict(payload)
                for qid, payload in state["synthetic_snapshots"].items()}
            self.qos_registry.reset({int(qid): QoSClass(qos)
                                     for qid, qos in state["user_qos"].items()})
            self.qos_registry.sync_with_table(self.table)
            self.network_operations = int(state["network_operations"])
            self.absorbed_operations = int(state["absorbed_operations"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _running_qids(self) -> Set[int]:
        return set(self.table.synthetic)

    def _record_mappings(self) -> None:
        for user_qid in self.table.take_remapped():
            synthetic_qid = self.table.user[user_qid].synthetic_qid
            if synthetic_qid is None:
                continue
            history = self._mapping_history.setdefault(user_qid, [])
            if not history or history[-1] != synthetic_qid:
                history.append(synthetic_qid)
            self._synthetic_snapshots.setdefault(
                synthetic_qid, self.table.synthetic[synthetic_qid].query)

    def _diff(self, before: Set[int]) -> NetworkActions:
        after = set(self.table.synthetic)
        self._record_mappings()
        aborted = sorted(before - after)
        injected = sorted(after - before)
        for qid in injected:
            self.table.synthetic[qid].flag = SyntheticStatus.RUNNING
        actions = NetworkActions(
            abort_qids=tuple(aborted),
            inject=tuple(self.table.synthetic[qid].query for qid in injected),
        )
        if actions.is_noop:
            self.absorbed_operations += 1
            self._m_absorbed.inc()
        else:
            self.network_operations += actions.n_operations
            self._m_network_ops.inc(actions.n_operations)
        return actions
