"""Algorithm 1: greedy query insertion (Section 3.1.3).

Given a new query and the running synthetic-query list, find the synthetic
query whose rewrite yields the highest benefit *rate*:

* ``max == 1``  — the synthetic query covers the new one; just map it in
  (no network change);
* ``max > 0``   — ``Integrate`` the pair into a merged synthetic query and
  *recursively insert the merged query*, because "it is possible that
  synthetic queries can further benefit from the newly integrated
  synthetic query" (the paper's q1''/q2'' example);
* otherwise     — the new query becomes its own synthetic query.

The recursion strictly decreases the number of synthetic records, so it
terminates.  The caller (the optimizer facade) diffs the synthetic set
before/after to derive the abort/inject operations "invoked upon the
termination of the algorithm".
"""

from __future__ import annotations

from typing import Dict, Optional

from ...queries.ast import QidAllocator, Query
from .cost_model import CostModel
from .query_table import QueryTable, SyntheticQueryRecord
from .rewriter import (
    BenefitAssessment,
    beneficial,
    integrate,
    new_synthetic_record,
    update_count,
)


def insert_query(query: Query, from_map: Dict[int, Query], table: QueryTable,
                 cost_model: CostModel,
                 qids: QidAllocator) -> SyntheticQueryRecord:
    """Insert ``query`` (serving the user queries in ``from_map``).

    ``query`` is a plain user query on the outer call and a merged synthetic
    query on recursive calls.  Returns the synthetic record that ends up
    serving ``from_map``; ``table`` is updated in place (user ``qid'``
    mappings included).  New synthetic qids come from ``qids``.
    """
    candidates = sorted(table.synthetic.values(), key=lambda r: r.qid)
    if not candidates:
        return _add_as_new(query, from_map, table, qids)

    best_rate = 0.0
    best_record: Optional[SyntheticQueryRecord] = None
    best_assessment: Optional[BenefitAssessment] = None
    for record in candidates:
        assessment = beneficial(query, record, cost_model)
        if assessment.rate > best_rate:
            best_rate = assessment.rate
            best_record = record
            best_assessment = assessment
            if best_rate == 1.0:
                break  # covered: cannot do better

    if best_record is None or best_assessment is None:
        return _add_as_new(query, from_map, table, qids)

    if best_assessment.is_cover:
        for user_query in from_map.values():
            update_count(best_record, user_query, increment=True)
            table.assign(user_query.qid, best_record.qid)
        return best_record

    # 0 < rate < 1: Integrate, then recursively re-insert the merged query.
    assert best_assessment.plan is not None
    table.remove_synthetic(best_record.qid)
    merged_query, combined_from = integrate(best_record, best_assessment.plan,
                                            from_map, qids)
    return insert_query(merged_query, combined_from, table, cost_model, qids)


def _add_as_new(query: Query, from_map: Dict[int, Query], table: QueryTable,
                qids: QidAllocator) -> SyntheticQueryRecord:
    record = new_synthetic_record(query, from_map, qids)
    table.add_synthetic(record)
    return record
