"""Tier 0: the root coordinator's rewrite pass over cluster shards.

The paper's optimizer has two tiers; a sharded deployment adds a third
*above* them: before a query reaches any shard's tier-1 optimizer, the
root decides **which shards must run it at all** and **what form it must
take** so per-shard partial results remain mergeable at the root.

Two rewrites happen here:

* **Region pruning** — the known-answer-set predicate classes of Section
  3.2.2 (``nodeid`` and the ``x``/``y`` position attributes) are static
  per region, so a constraint like ``nodeid BETWEEN 8 AND 15`` rules a
  shard in or out by interval intersection with the region's extent.
  Pruning is conservative: an extent is a bounding box, so a shard may be
  targeted and return nothing, but a shard with matching data is never
  skipped.
* **AVG decomposition** — AVG is not mergeable from per-shard AVGs (the
  shards weigh differently).  A multi-shard aggregation query asking for
  ``AVG(a)`` is fanned out as ``SUM(a), COUNT(a)`` instead, exactly the
  trick tier-2 already uses in-network, and the root finalises
  ``AVG = sum(SUM) / sum(COUNT)`` when merging (``repro.cluster.merge``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ...queries.ast import Aggregate, AggregateOp, Query
from ...queries.canonical import canonicalize
from ...queries.predicates import Interval

#: Predicate attributes whose values are static per region (prunable).
REGION_ATTRIBUTES = ("nodeid", "x", "y")


@dataclass(frozen=True)
class RegionExtent:
    """One shard's static attribute bounds, for region pruning."""

    shard_id: int
    node_ids: Interval
    x: Interval
    y: Interval

    def admits(self, query: Query) -> bool:
        """False only if a region predicate excludes this whole shard."""
        bounds = {"nodeid": self.node_ids, "x": self.x, "y": self.y}
        for attribute, interval in query.predicates.items():
            bound = bounds.get(attribute)
            if bound is not None and not bound.overlaps(interval):
                return False
        return True


@dataclass(frozen=True)
class RootPlan:
    """Where one user query runs and what the shards actually execute."""

    #: Canonical form of the user query (what the tenant is answered for).
    canonical: Query
    #: The query fanned to each target shard (== ``canonical`` unless the
    #: AVG decomposition rewrote the aggregate list).
    fan_query: Query
    #: Target shard ids, ascending.
    targets: Tuple[int, ...]
    #: Shards ruled out by region pruning, ascending.
    pruned: Tuple[int, ...]


def decompose_for_fan_out(canonical: Query) -> Query:
    """The mergeable form of an aggregation query for multi-shard fan-out.

    Replaces each ``AVG(a)`` with ``SUM(a)`` and ``COUNT(a)`` (dedup'd
    against aggregates the query already requests); every other operator
    is mergeable as-is.  Acquisition queries pass through unchanged.
    """
    if not canonical.is_aggregation:
        return canonical
    fanned = set()
    for aggregate in canonical.aggregates:
        if aggregate.op is AggregateOp.AVG:
            fanned.add(Aggregate(AggregateOp.SUM, aggregate.attribute))
            fanned.add(Aggregate(AggregateOp.COUNT, aggregate.attribute))
        else:
            fanned.add(aggregate)
    aggregates = tuple(sorted(fanned, key=lambda a: a.sort_key))
    if aggregates == canonical.aggregates:
        return canonical
    return Query(
        qid=canonical.qid,
        attributes=(),
        aggregates=aggregates,
        predicates=canonical.predicates,
        epoch_ms=canonical.epoch_ms,
        group_by=canonical.group_by,
    )


class RootRewriter:
    """Plans one user query against the cluster's region extents."""

    def __init__(self, extents: Sequence[RegionExtent]) -> None:
        if not extents:
            raise ValueError("root rewriter needs at least one region")
        self._extents = tuple(sorted(extents, key=lambda e: e.shard_id))

    def plan(self, query: Query) -> RootPlan:
        """Canonicalize, prune regions, and pick the fan-out form."""
        canonical = canonicalize(query)
        targets = tuple(e.shard_id for e in self._extents
                        if e.admits(canonical))
        pruned = tuple(e.shard_id for e in self._extents
                       if e.shard_id not in targets)
        if not targets:
            # The predicates exclude every region (e.g. nodeid > side^2):
            # the answer set is provably empty everywhere, but the query
            # must still run somewhere to produce its (empty) epochs, so
            # it lands on the first region alone.
            targets = (self._extents[0].shard_id,)
            pruned = tuple(e.shard_id for e in self._extents[1:])
        fan_query = (decompose_for_fan_out(canonical)
                     if len(targets) > 1 else canonical)
        return RootPlan(canonical=canonical, fan_query=fan_query,
                        targets=targets, pruned=pruned)
