"""Cost/statistics planner: EXPLAIN pricing, quotas, and run statistics.

The tier-1 optimizer decides *how* to share queries but never prices
them.  This module closes that gap with three pieces:

* :class:`StatisticsStore` — a mergeable store of the deployment
  statistics it is fed (attribute histograms for selectivity — the
  sensors layer's :class:`~repro.sensors.distributions.AttributeHistogram`
  — routing-tree level sizes, per-kind frame/airtime accumulators, sleep
  duty cycle).  Every accumulator is an **integer** (counts, or
  microseconds rounded at observation time), which makes
  :meth:`StatisticsStore.merge` exactly commutative *and* associative —
  shard stores merged in any order at the cluster root produce
  bit-identical results — and makes the JSON serialization round-trip
  bit-identical.

* :class:`QueryPlanner` — prices a canonical query in **radio-seconds per
  epoch** (Eq. 3's tx-ms per ms of network time, integrated over one
  epoch) and **joules per epoch** (the marginal radio energy above the
  idle-listen baseline, under :class:`~repro.sim.trace.EnergyModel`).
  Selectivity comes from collected histograms when available, falling
  back to the cost model's configured distributions; a measured
  *overhead factor* (total airtime / result airtime) and an explicit
  calibration scalar map the result-only model onto whole-network cost.

* :class:`ExplainReport` / :class:`TenantQuotas` — the value types behind
  ``QueryService.explain`` (plan, sharing delta, price, admission
  verdict, all computed *before* admission and without mutating live
  state) and per-tenant cost budgets enforced at ``submit``.

Prices are deterministic functions of the query and the planner's
construction-time state, so WAL replay reproduces every quota and
cost-shedding decision exactly (the ``repro.service.overload`` contract).

Metric families (``planner.*``) are documented in
``docs/observability.md`` — names are API.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from ..core.basestation import BaseStationOptimizer, CostModel
from ..obs import get_registry, scoped
from ..queries.ast import Query
from ..queries.predicates import PredicateSet
from ..sensors.distributions import DEFAULT_BUCKETS, AttributeHistogram
from ..sensors.field import AttributeSpec
from ..sim.trace import EnergyModel
from ..workloads.spec import EventKind, Workload

_US_PER_MS = 1000.0


def _us(ms: float) -> int:
    """Milliseconds to integer microseconds (rounded half-even)."""
    return int(round(ms * _US_PER_MS))


def _sample_counter(kind: str):
    return get_registry().counter(
        "planner.stats_samples_total",
        help="observations folded into a statistics store", kind=kind)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
STATS_FORMAT_VERSION = 1


@dataclass
class StatisticsStore:
    """Mergeable deployment statistics (a commutative monoid).

    One store describes *a set of observed node-time*: merging the stores
    of two disjoint shards sums their node counts, level sizes, frame and
    airtime accumulators, and histogram buckets.  ``empty()`` is the
    identity.  All accumulators are integers (airtime in microseconds,
    rounded per observation), so merge order can never change a bit.
    """

    attributes: Dict[str, AttributeHistogram] = field(default_factory=dict)
    level_sizes: Dict[int, int] = field(default_factory=dict)
    nodes: int = 0
    rows_observed: int = 0
    #: Frames and airtime by wire kind (``query``/``abort``/``result``/
    #: ``maintenance`` — the :class:`~repro.sim.messages.MessageKind`
    #: values).
    frames: Dict[str, int] = field(default_factory=dict)
    airtime_us: Dict[str, int] = field(default_factory=dict)
    #: Node-milliseconds of radio-off time, and the total node-time the
    #: store covers (nodes x elapsed, summed over samples).  Their ratio
    #: is the measured sleep duty cycle.
    sleep_us: int = 0
    node_time_us: int = 0

    @classmethod
    def empty(cls) -> "StatisticsStore":
        return cls()

    @classmethod
    def from_specs(cls, specs: Iterable[AttributeSpec],
                   n_buckets: int = DEFAULT_BUCKETS) -> "StatisticsStore":
        store = cls()
        for spec in specs:
            store.attributes[spec.name] = AttributeHistogram.from_spec(
                spec, n_buckets)
        return store

    # -- observation ---------------------------------------------------
    def observe_row(self, row: Mapping[str, float]) -> None:
        """Fold one row of sensor readings into the attribute histograms."""
        for name, value in row.items():
            histogram = self.attributes.get(name)
            if histogram is not None:
                histogram.observe(float(value))
        self.rows_observed += 1
        _sample_counter("rows").inc()

    def observe_frames(self, kind: str, frames: int,
                       airtime_ms: float) -> None:
        """Fold ``frames`` transmissions totalling ``airtime_ms`` on air."""
        self.frames[kind] = self.frames.get(kind, 0) + int(frames)
        self.airtime_us[kind] = self.airtime_us.get(kind, 0) + _us(airtime_ms)
        _sample_counter("frames").inc(int(frames))

    # -- merge (commutative, associative, exact) -----------------------
    def merge(self, other: "StatisticsStore") -> "StatisticsStore":
        """A new store holding both operands' observations."""
        merged = StatisticsStore(
            nodes=self.nodes + other.nodes,
            rows_observed=self.rows_observed + other.rows_observed,
            sleep_us=self.sleep_us + other.sleep_us,
            node_time_us=self.node_time_us + other.node_time_us,
        )
        for source in (self, other):
            for level, size in source.level_sizes.items():
                merged.level_sizes[level] = (
                    merged.level_sizes.get(level, 0) + size)
            for kind, count in source.frames.items():
                merged.frames[kind] = merged.frames.get(kind, 0) + count
            for kind, us in source.airtime_us.items():
                merged.airtime_us[kind] = merged.airtime_us.get(kind, 0) + us
        merged.attributes = dict(self.attributes)
        for name, histogram in other.attributes.items():
            mine = merged.attributes.get(name)
            merged.attributes[name] = (histogram if mine is None
                                       else mine.merge(histogram))
        get_registry().counter(
            "planner.stats_merges_total",
            help="statistics-store merges (shard roll-ups)").inc()
        return merged

    # -- estimates -----------------------------------------------------
    def probability(self, attribute: str, lo: float, hi: float) -> float:
        """Histogram P(value in [lo, hi]) for one attribute.

        An attribute without a collected histogram gives 1.0 (no
        information, no constraint on the estimate) — the estimate stays
        monotone under predicate tightening either way.
        """
        histogram = self.attributes.get(attribute)
        return 1.0 if histogram is None else histogram.probability(lo, hi)

    def selectivity(self, predicates: PredicateSet) -> float:
        """Eq. 1's sel from the collected histograms."""
        return predicates.selectivity(self)

    def total_airtime_ms(self) -> float:
        return sum(self.airtime_us.values()) / _US_PER_MS

    def result_airtime_ms(self) -> float:
        return self.airtime_us.get("result", 0) / _US_PER_MS

    def overhead_factor(self) -> float:
        """Measured total airtime over result airtime (>= 1.0).

        The cost model prices *result* traffic only; floods, maintenance
        beacons and retransmissions ride on top.  1.0 when the store has
        no result samples to calibrate from.
        """
        result = self.result_airtime_ms()
        if result <= 0:
            return 1.0
        return max(self.total_airtime_ms() / result, 1.0)

    def sleep_fraction(self) -> float:
        """Measured fraction of node-time spent with the radio off."""
        if self.node_time_us <= 0:
            return 0.0
        return min(self.sleep_us / self.node_time_us, 1.0)

    # -- serialization (bit-identical round trip) ----------------------
    def to_dict(self) -> dict:
        return {
            "format": STATS_FORMAT_VERSION,
            "nodes": self.nodes,
            "rows_observed": self.rows_observed,
            "sleep_us": self.sleep_us,
            "node_time_us": self.node_time_us,
            "level_sizes": {str(k): v
                            for k, v in sorted(self.level_sizes.items())},
            "frames": dict(sorted(self.frames.items())),
            "airtime_us": dict(sorted(self.airtime_us.items())),
            "attributes": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self.attributes.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StatisticsStore":
        if payload.get("format") != STATS_FORMAT_VERSION:
            raise ValueError(
                f"unsupported statistics format {payload.get('format')!r} "
                f"(this build reads {STATS_FORMAT_VERSION})")
        store = cls(
            nodes=int(payload["nodes"]),
            rows_observed=int(payload["rows_observed"]),
            sleep_us=int(payload["sleep_us"]),
            node_time_us=int(payload["node_time_us"]),
            level_sizes={int(k): int(v)
                         for k, v in payload["level_sizes"].items()},
            frames={k: int(v) for k, v in payload["frames"].items()},
            airtime_us={k: int(v) for k, v in payload["airtime_us"].items()},
        )
        store.attributes = {
            name: AttributeHistogram.from_dict(entry)
            for name, entry in payload["attributes"].items()}
        return store

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StatisticsStore":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryPrice:
    """What one query costs the network, per epoch of its own duration."""

    #: Estimated radio transmission time its results incur per epoch.
    radio_s_per_epoch: float
    #: Marginal radio energy above the idle-listen baseline per epoch.
    joules_per_epoch: float
    selectivity: float
    transmissions_per_epoch: float
    hop_cost_ms: float
    message_bytes: int
    epoch_ms: int

    def to_dict(self) -> dict:
        return {
            "radio_s_per_epoch": self.radio_s_per_epoch,
            "joules_per_epoch": self.joules_per_epoch,
            "selectivity": self.selectivity,
            "transmissions_per_epoch": self.transmissions_per_epoch,
            "hop_cost_ms": self.hop_cost_ms,
            "message_bytes": self.message_bytes,
            "epoch_ms": self.epoch_ms,
        }


class QueryPlanner:
    """Prices canonical queries against a cost model plus live statistics.

    ``stats`` supplies collected selectivity histograms and the measured
    overhead factor; ``calibration`` is an explicit end-to-end scalar
    (estimated-vs-measured on a calibration run — the accuracy test
    derives and commits it).  Both default to neutral, so a bare planner
    prices queries straight off the paper's Eqs. 1-3.

    Pricing is a pure function of the query and construction-time state:
    the same planner under WAL replay produces the same prices, which is
    what keeps quota and cost-shedding decisions replay-deterministic.
    """

    def __init__(self, cost_model: CostModel, *,
                 stats: Optional[StatisticsStore] = None,
                 calibration: float = 1.0,
                 energy: Optional[EnergyModel] = None) -> None:
        if calibration <= 0:
            raise ValueError(f"calibration must be > 0 (got {calibration})")
        self.cost_model = cost_model
        self.stats = stats
        self.calibration = calibration
        self.energy = energy or EnergyModel()

    def scale(self) -> float:
        """Calibration x measured overhead: model units -> network units."""
        overhead = (self.stats.overhead_factor()
                    if self.stats is not None else 1.0)
        return self.calibration * overhead

    def selectivity(self, query: Query) -> float:
        """Collected-histogram selectivity, cost-model fallback."""
        if self.stats is not None and self.stats.attributes:
            return self.stats.selectivity(query.predicates)
        return self.cost_model.selectivity(query)

    def price(self, query: Query) -> QueryPrice:
        """Price ``query`` in radio-seconds and joules per epoch."""
        sel = self.selectivity(query)
        epoch = float(query.epoch_ms)
        tx_per_ms = self.cost_model.transmissions_at(query, sel)
        hop = self.cost_model.hop_cost(query)
        radio_s = tx_per_ms * hop * self.scale() * epoch / 1000.0
        joules = radio_s * (self.energy.tx_mw - self.energy.listen_mw) / 1000.0
        return QueryPrice(
            radio_s_per_epoch=radio_s,
            joules_per_epoch=joules,
            selectivity=sel,
            transmissions_per_epoch=tx_per_ms * epoch,
            hop_cost_ms=hop,
            message_bytes=self.cost_model.message_length(query),
            epoch_ms=query.epoch_ms,
        )

    def model_radio_s_per_epoch(self, query: Query) -> float:
        """Eq. 3 cost in scaled radio-seconds (cost-model selectivity).

        The unit EXPLAIN's sharing deltas are expressed in, so marginal
        and standalone costs subtract cleanly.
        """
        return (self.cost_model.cost(query) * query.epoch_ms / 1000.0
                * self.scale())


# ----------------------------------------------------------------------
# Whole-workload estimation (the differential accuracy test's estimator)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadEstimate:
    """Priced prediction for one workload run, before executing it."""

    radio_s: float
    joules: float
    results_radio_s: float
    floods_radio_s: float
    network_operations: int

    def to_dict(self) -> dict:
        return {
            "radio_s": self.radio_s,
            "joules": self.joules,
            "results_radio_s": self.results_radio_s,
            "floods_radio_s": self.floods_radio_s,
            "network_operations": self.network_operations,
        }


def estimate_workload(workload: Workload, planner: QueryPlanner, *,
                      alpha: float = 0.6,
                      horizon_ms: Optional[float] = None) -> WorkloadEstimate:
    """EXPLAIN a whole workload: integrate priced synthetic-set cost.

    Replays the workload's arrivals/departures through a scratch tier-1
    optimizer (inside a scoped registry — live metrics untouched) and
    integrates the priced cost of the *synthetic* set over time, plus one
    flood per network operation.  Joules add the idle/sleep baseline from
    the planner's measured duty cycle, so the estimate is comparable to
    the simulator's measured ``average_energy_mj``.
    """
    horizon = float(workload.duration_ms if horizon_ms is None
                    else horizon_ms)
    results_radio_s = 0.0
    with scoped():
        optimizer = BaseStationOptimizer(planner.cost_model, alpha=alpha)
        optimizer.qids.claim(workload.max_qid())
        last_t = 0.0
        rate = 0.0  # radio-seconds per ms of network time
        for event in workload.events:
            t = min(event.time_ms, horizon)
            if t > last_t:
                results_radio_s += rate * (t - last_t)
                last_t = t
            if event.time_ms >= horizon:
                break
            if event.kind is EventKind.ARRIVE:
                optimizer.register(event.query)
            else:
                optimizer.terminate(event.query.qid)
            rate = sum(planner.price(q).radio_s_per_epoch / q.epoch_ms
                       for q in optimizer.synthetic_queries())
        if horizon > last_t:
            results_radio_s += rate * (horizon - last_t)
        operations = optimizer.network_operations
    floods_radio_s = (operations * planner.cost_model.flood_cost() / 1000.0
                      * planner.calibration)
    radio_s = results_radio_s + floods_radio_s
    n = planner.cost_model.profile.n_sensors
    if n > 0 and horizon > 0:
        sleep_fraction = (planner.stats.sleep_fraction()
                          if planner.stats is not None else 0.0)
        tx_node_ms = radio_s * 1000.0 / n
        sleep_node_ms = min(sleep_fraction * horizon, horizon)
        node_mj = planner.energy.energy_mj(tx_node_ms, sleep_node_ms,
                                           horizon)
        joules = node_mj * n / 1000.0
    else:
        joules = 0.0
    return WorkloadEstimate(
        radio_s=radio_s, joules=joules,
        results_radio_s=results_radio_s, floods_radio_s=floods_radio_s,
        network_operations=operations)


# ----------------------------------------------------------------------
# EXPLAIN and quotas (value types; behaviour lives in QueryService)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExplainReport:
    """What ``EXPLAIN <query>`` returns: plan, sharing delta, price.

    ``action`` is how admission *would* integrate the query right now:
    ``cache-attach`` (an identical canonical query is live — refcount
    bump, zero marginal network cost), ``absorbed`` (Algorithm 1 covers
    or merges it into the running synthetic set without new floods), or
    ``injected`` (a new synthetic query must be disseminated).  Marginal
    and standalone costs share the planner's scaled model units, so
    ``sharing_saving_radio_s_per_epoch`` is their clean difference.
    """

    text: str
    action: str
    cache_hit: bool
    price: QueryPrice
    standalone_radio_s_per_epoch: float
    marginal_radio_s_per_epoch: float
    sharing_saving_radio_s_per_epoch: float
    synthetic_before: int
    synthetic_after: int
    aborts: int
    injected: bool
    would_shed: Optional[str]
    quota_budget: Optional[float]
    quota_spent_radio_s: float
    quota_ok: bool

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "action": self.action,
            "cache_hit": self.cache_hit,
            "price": self.price.to_dict(),
            "standalone_radio_s_per_epoch":
                self.standalone_radio_s_per_epoch,
            "marginal_radio_s_per_epoch": self.marginal_radio_s_per_epoch,
            "sharing_saving_radio_s_per_epoch":
                self.sharing_saving_radio_s_per_epoch,
            "synthetic_before": self.synthetic_before,
            "synthetic_after": self.synthetic_after,
            "aborts": self.aborts,
            "injected": self.injected,
            "would_shed": self.would_shed,
            "quota_budget": self.quota_budget,
            "quota_spent_radio_s": self.quota_spent_radio_s,
            "quota_ok": self.quota_ok,
        }


@dataclass(frozen=True)
class TenantQuotas:
    """Per-tenant admission budgets in radio-seconds per epoch.

    A tenant's *spend* is the summed ``radio_s_per_epoch`` price of its
    PENDING and LIVE tickets; a submission that would push spend over the
    budget is rejected at ``submit`` (status ``SHED``, ``quota:`` error,
    ``planner.quota_rejections_total``).  ``None`` budgets are unlimited.
    """

    default_radio_s_per_epoch: Optional[float] = None
    per_client: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        budgets = list(self.per_client.values())
        if self.default_radio_s_per_epoch is not None:
            budgets.append(self.default_radio_s_per_epoch)
        for budget in budgets:
            if not budget > 0 or math.isnan(budget):
                raise ValueError(
                    f"quota budgets must be > 0 (got {budget})")

    def budget(self, client_id: str) -> Optional[float]:
        return self.per_client.get(client_id,
                                   self.default_radio_s_per_epoch)


@dataclass(frozen=True)
class PlannerStats:
    """Instance-scoped snapshot of the ``planner.*`` counters."""

    explains: int
    quota_rejections: int
    cost_sheds: int
    priced_backlog_radio_s: float
    live_cost_radio_s: float
