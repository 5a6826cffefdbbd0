"""Query-rewriting primitives: Beneficial, Integrate, UpdateCount.

These are the helper procedures Algorithm 1 and Algorithm 2 are written in
terms of (Section 3.1.3):

* ``Beneficial(q_i, q_j)`` — "first identifies whether two queries are
  rewritable based on semantic correctness constraints, and then computes
  the benefit rate": ``benefit(q_i, q_j) / cost(q_i)``, with the special
  value 1 meaning ``q_j`` *covers* ``q_i`` (adding it changes nothing in
  the network);
* ``Integrate(q_id, q_i)`` — builds the merged synthetic query and its
  combined from_list;
* ``UpdateCount(q, sqid, flag)`` — adds/removes a user query's
  contribution to a synthetic query's from_list and count fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...queries.ast import QidAllocator, Query
from ...queries.semantics import MergePlan, covers, merge, merge_all
from .cost_model import CostModel
from .query_table import SyntheticQueryRecord, SyntheticStatus

#: Placeholder qid for probe merges whose outcome may be discarded.
PROBE_QID = -1

#: Benefit rates of real (non-covering) merges are clamped strictly below 1
#: so Algorithm 1's ``max == 1`` branch fires only for structural coverage.
_MAX_MERGE_RATE = 1.0 - 1e-9


@dataclass(frozen=True)
class BenefitAssessment:
    """Outcome of ``Beneficial(q_i, q_j)`` for one candidate synthetic query."""

    rate: float
    plan: Optional[MergePlan]  # None when covered or not rewritable

    @property
    def is_cover(self) -> bool:
        return self.rate == 1.0


def beneficial(q_new: Query, record: SyntheticQueryRecord,
               cost_model: CostModel) -> BenefitAssessment:
    """The paper's ``Beneficial`` function (benefit *rate*, not raw benefit)."""
    if covers(record.query, q_new):
        return BenefitAssessment(rate=1.0, plan=None)
    plan = merge(record.query, q_new, qid=PROBE_QID)
    if plan is None:
        return BenefitAssessment(rate=float("-inf"), plan=None)
    gain = cost_model.benefit(record.query, q_new, plan.merged)
    denominator = cost_model.cost(q_new)
    if denominator <= 0:
        return BenefitAssessment(rate=float("-inf"), plan=None)
    rate = min(gain / denominator, _MAX_MERGE_RATE)
    return BenefitAssessment(rate=rate, plan=plan)


def integrate(record: SyntheticQueryRecord, plan: MergePlan,
              extra_from: Dict[int, Query],
              qids: QidAllocator) -> Tuple[Query, Dict[int, Query]]:
    """The paper's ``Integrate``: materialise the merged synthetic query.

    Returns the merged query (with a fresh qid from ``qids``) and the
    combined from_list.  The caller removes ``record`` from the table and
    re-inserts the merged query per Algorithm 1 line 14.
    """
    merged = dataclasses.replace(plan.merged, qid=next(qids))
    combined: Dict[int, Query] = dict(record.from_list)
    combined.update(extra_from)
    return merged, combined


def update_count(record: SyntheticQueryRecord, user_query: Query,
                 increment: bool) -> None:
    """The paper's ``UpdateCount``: adjust a user query's contribution.

    Incrementing adds the query to the from_list and decrementing removes
    it; the record moves its count fields along.
    """
    if increment:
        record.add_user_query(user_query)
    else:
        record.remove_user_query(user_query.qid)


def new_synthetic_record(query: Query, from_map: Dict[int, Query],
                         qids: QidAllocator) -> SyntheticQueryRecord:
    """Wrap a query as a brand-new synthetic query (qid from ``qids``, PENDING).

    The synthetic form is the canonical fold of the query (``merge_all`` of
    the singleton), so an acquisition synthetic always requests its
    predicate attributes too — the uniform convention that keeps every user
    predicate re-evaluable at the base station after later widenings.
    """
    synthetic = merge_all([query], qid=next(qids))
    return SyntheticQueryRecord(query=synthetic, from_list=dict(from_map),
                                flag=SyntheticStatus.PENDING)
