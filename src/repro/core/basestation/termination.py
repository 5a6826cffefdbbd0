"""Algorithm 2: adaptive query termination (Section 3.1.4).

When a user query ``q`` terminates, its contribution is removed from the
synthetic query ``sq_old`` it was rewritten into.  If some count field
thereby drops to zero — ``sq_old`` now requests data nobody needs — the
algorithm decides between:

* **keep** ``sq_old`` unchanged, hiding the termination from the network,
  when ``cost(q) <= sq_old.benefit * alpha`` (the benefit lost by carrying
  the dead weight is a small fraction of the synthetic query's benefit);
* **rebuild**: abort ``sq_old`` and re-insert its remaining user queries
  exactly like newly arriving queries.

``alpha`` tunes the aggressiveness: small alpha forces frequent rebuilds
(and their abort/inject traffic); large alpha tolerates over-requesting.
The paper's sweep finds alpha = 0.6 best for its workload (Figure 4(b)).
"""

from __future__ import annotations

from typing import List

from ...queries.ast import QidAllocator, Query
from .cost_model import CostModel
from .insertion import insert_query
from .query_table import QueryTable, SyntheticQueryRecord
from .rewriter import update_count


def synthetic_benefit(record: SyntheticQueryRecord, cost_model: CostModel) -> float:
    """The record's *benefit* field: gain vs running its user queries alone.

    Summed over the stored member costs in from_list order on every call: a
    running sum would drift by an ulp per add/subtract and flip near-tie
    alpha decisions.
    """
    costs = record.member_costs(cost_model)
    individual = sum(map(costs.__getitem__, record.from_list))
    return individual - record.cost(cost_model)


def terminate_query(user_qid: int, table: QueryTable, cost_model: CostModel,
                    alpha: float, qids: QidAllocator) -> None:
    """Run Algorithm 2 for the termination of user query ``user_qid``.

    Mutates ``table`` in place; the optimizer facade derives the network
    abort/inject operations from the before/after synthetic sets.  A
    rebuild draws its new synthetic qids from ``qids``.
    """
    record = table.synthetic_for(user_qid)
    user = table.remove_user(user_qid)

    # sq_old.benefit, evaluated while q still contributes (the algorithm
    # compares cost(q) against the benefit of the *old* synthetic query).
    old_benefit = synthetic_benefit(record, cost_model)
    user_cost = record.member_costs(cost_model)[user_qid]

    update_count(record, user.query, increment=False)

    if not record.from_list:
        # q was the only contained query: the synthetic query dies with it.
        table.remove_synthetic(record.qid)
        return

    if not record.over_requests():
        # No count dropped to zero: the remaining queries still need
        # everything sq_old requests.  Nothing changes in the network.
        return

    if user_cost <= old_benefit * alpha:
        # Keep sq_old unchanged: the over-requested data costs less than
        # alpha times the benefit the synthetic query still provides.
        return

    # Rebuild: abort sq_old and re-insert the survivors like new arrivals.
    table.remove_synthetic(record.qid)
    survivors: List[Query] = sorted(record.from_list.values(), key=lambda q: q.qid)
    for query in survivors:
        table.assign(query.qid, None)
    for query in survivors:
        insert_query(query, {query.qid: query}, table, cost_model, qids)
