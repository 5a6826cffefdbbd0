"""Rewrite semantics: when and how two queries may be merged.

Section 3.1.2 defines the correctness constraints tier-1 must respect:

* the data requested by the merged query is a superset of the data
  requested by both inputs;
* two **aggregation** queries may merge only if they have *the same
  predicates* (otherwise their aggregates cannot be told apart from one
  partial-aggregate stream);
* an **aggregation** query may be folded into an **acquisition** query —
  the base station then recomputes the aggregate from the returned detail
  rows — provided the acquisition side returns every attribute needed to
  re-evaluate the aggregation query (its aggregate inputs *and* its
  predicate attributes) and its predicates cover the aggregation query's;
* the merged epoch duration is the GCD of the input epochs.

Because a synthetic query's predicates are generally *wider* than each user
query's (interval hulls), the base station must re-filter returned rows per
user query.  A merged acquisition query therefore requests the union of the
inputs' *requested* attributes (selected + aggregated + predicate
attributes), so every user predicate stays evaluable at the base station.
The larger payload this causes is charged by the cost model, keeping the
greedy search honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .ast import Query, combined_epoch


class MergeKind(enum.Enum):
    """How two queries combine into one synthetic query."""

    ACQ_ACQ = "acquisition+acquisition"
    AGG_AGG = "aggregation+aggregation"
    ACQ_ABSORBS_AGG = "acquisition absorbs aggregation"


@dataclass(frozen=True)
class MergePlan:
    """The result of a feasible merge: the synthetic query to materialise."""

    kind: MergeKind
    merged: Query


def attributes_needed_from(query: Query, synthetic_predicates) -> set:
    """Attributes a synthetic query must return to serve ``query``.

    Always the selected attributes and aggregate inputs; additionally the
    predicate attributes when the synthetic's predicates differ from the
    query's own (then the base station must re-filter rows, which requires
    the tested values).  A synthetic with *identical* predicates needs no
    re-filtering — the in-network evaluation already applied them.
    """
    needed = set(query.attributes)
    needed.update(a.attribute for a in query.aggregates)
    if synthetic_predicates != query.predicates:
        needed.update(query.predicates.attributes)
    return needed


def covers(synthetic: Query, query: Query) -> bool:
    """True if ``synthetic`` already requests everything ``query`` needs.

    This is Algorithm 1's ``max == 1`` case: adding ``query`` changes
    nothing in the network.  Requires attribute coverage, predicate
    coverage, and that ``query``'s epoch boundaries are a subset of
    ``synthetic``'s (i.e. ``query.epoch`` is a multiple of
    ``synthetic.epoch`` — epochs are aligned to absolute time in tier 2).
    """
    if query.epoch_ms % synthetic.epoch_ms != 0:
        return False
    if synthetic.is_acquisition:
        needed = attributes_needed_from(query, synthetic.predicates)
        if not set(synthetic.attributes) >= needed:
            return False
        return synthetic.predicates.covers(query.predicates)
    # Aggregation synthetic queries can only cover aggregation queries with
    # identical predicates, identical grouping, and a subset of the
    # aggregate list.
    if not query.is_aggregation:
        return False
    if synthetic.predicates != query.predicates:
        return False
    if synthetic.group_by != query.group_by:
        return False
    return set(synthetic.aggregates) >= set(query.aggregates)


def merge(q1: Query, q2: Query, qid: int) -> Optional[MergePlan]:
    """Build the synthetic query combining ``q1`` and ``q2``, if allowed.

    Returns ``None`` when the semantic-correctness constraints forbid the
    merge (aggregation queries with differing predicates).  The result
    always satisfies ``covers(merged, q1)`` and ``covers(merged, q2)``.
    """
    epoch = combined_epoch(q1.epoch_ms, q2.epoch_ms)
    if q1.is_aggregation and q2.is_aggregation:
        if q1.predicates != q2.predicates or q1.group_by != q2.group_by:
            return None
        aggregates = tuple(sorted(set(q1.aggregates) | set(q2.aggregates),
                                  key=lambda a: (a.op.value, a.attribute)))
        merged = Query.aggregation(aggregates, q1.predicates, epoch, qid=qid,
                                   group_by=q1.group_by)
        return MergePlan(MergeKind.AGG_AGG, merged)

    # At least one acquisition side: the merged query is an acquisition that
    # returns every attribute either input needs under the hulled
    # predicates (see module docstring).
    predicates = q1.predicates.hull(q2.predicates)
    attributes = tuple(sorted(attributes_needed_from(q1, predicates)
                              | attributes_needed_from(q2, predicates)))
    merged = Query.acquisition(attributes, predicates, epoch, qid=qid)
    if q1.is_acquisition and q2.is_acquisition:
        kind = MergeKind.ACQ_ACQ
    else:
        kind = MergeKind.ACQ_ABSORBS_AGG
    return MergePlan(kind, merged)


def mergeable(q1: Query, q2: Query) -> bool:
    """True if a merged synthetic query exists for the pair."""
    if q1.is_aggregation and q2.is_aggregation:
        return q1.predicates == q2.predicates and q1.group_by == q2.group_by
    return True


def merge_all(queries: "list[Query]", qid: int) -> Query:
    """The tightest single synthetic query covering every input.

    Used to detect over-requesting after a user query terminates (the
    "some count has decreased to 0" trigger of Algorithm 2): if the fold of
    the remaining user queries differs from the running synthetic query, the
    synthetic query requests data nobody needs any more.

    Raises ``ValueError`` for an empty input or for a set of aggregation
    queries with differing predicates (such a set can never share one
    synthetic query, so it cannot arise from valid tier-1 state).
    """
    if not queries:
        raise ValueError("cannot fold an empty query list")
    all_aggregation = all(q.is_aggregation for q in queries)
    predicates = queries[0].predicates
    group_by = queries[0].group_by
    if all_aggregation:
        if any(q.predicates != predicates or q.group_by != group_by
               for q in queries[1:]):
            raise ValueError(
                "aggregation queries with differing predicates or grouping "
                "cannot share a synthetic query"
            )
        aggregates: set = set()
        epoch = 0
        for q in queries:
            aggregates.update(q.aggregates)
            epoch = combined_epoch(epoch or q.epoch_ms, q.epoch_ms)
        return Query.aggregation(
            tuple(sorted(aggregates, key=lambda a: (a.op.value, a.attribute))),
            predicates, epoch, qid=qid, group_by=group_by)
    epoch = 0
    hull = None
    for q in queries:
        epoch = combined_epoch(epoch or q.epoch_ms, q.epoch_ms)
        hull = q.predicates if hull is None else hull.hull(q.predicates)
    attributes: set = set()
    for q in queries:
        attributes |= attributes_needed_from(q, hull)
    return Query.acquisition(tuple(sorted(attributes)), hull, epoch, qid=qid)
