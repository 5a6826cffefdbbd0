"""QoS-driven multi-query optimization (the paper's stated future work).

Section 5: "We plan to study quality-of-service driven multi-query
optimization in the future."  This module implements a first concrete
version on top of the two tiers:

* every user query carries a :class:`QoSClass` — ``BEST_EFFORT`` (the
  paper's implicit default) or ``RELIABLE``;
* tier-1 propagates the strongest class of a synthetic query's members:
  merging a reliable user query into a synthetic query makes the whole
  synthetic query reliable (delivery guarantees cannot be weakened by
  sharing);
* tier-2 gives reliable queries **multipath delivery**: the origin sends
  its result frame to *two* DAG parents when two are available, each fully
  responsible, so a single lost path (collision burst, sleeping or failed
  relay) no longer loses the row.  The base station's result log
  deduplicates by (origin, epoch), so duplicates cost radio time — the
  explicit QoS price — but never wrong answers.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional, Set


class QoSClass(enum.Enum):
    """Delivery requirement of a query."""

    BEST_EFFORT = "best-effort"
    RELIABLE = "reliable"

    @property
    def multipath(self) -> bool:
        return self is QoSClass.RELIABLE


def strongest(classes: Iterable[QoSClass]) -> QoSClass:
    """The class a shared artifact must satisfy: reliable dominates."""
    result = QoSClass.BEST_EFFORT
    for qos in classes:
        if qos is QoSClass.RELIABLE:
            return QoSClass.RELIABLE
    return result


class QoSRegistry:
    """Query-id -> QoS class bookkeeping at the base station.

    Tier-1 keeps user-query classes and derives each synthetic query's
    class as the strongest among its members, re-deriving whenever the
    membership changes.  Every user query is BEST_EFFORT unless it is in
    the RELIABLE set, so a synthetic query is reliable exactly when its
    members meet that set — no best-effort member is ever looked at.
    """

    def __init__(self) -> None:
        self._reliable_users: Set[int] = set()
        self._synthetic: Dict[int, QoSClass] = {}

    # ------------------------------------------------------------------
    # User queries
    # ------------------------------------------------------------------
    def register_user(self, qid: int, qos: QoSClass) -> None:
        if qos is QoSClass.RELIABLE:
            self._reliable_users.add(qid)
        else:
            self._reliable_users.discard(qid)

    def forget_user(self, qid: int) -> None:
        self._reliable_users.discard(qid)

    def user_class(self, qid: int) -> QoSClass:
        return (QoSClass.RELIABLE if qid in self._reliable_users
                else QoSClass.BEST_EFFORT)

    # ------------------------------------------------------------------
    # Synthetic queries
    # ------------------------------------------------------------------
    def derive_synthetic(self, synthetic_qid: int,
                         member_qids: Iterable[int]) -> QoSClass:
        qos = self._strongest_among(frozenset(member_qids))
        self._synthetic[synthetic_qid] = qos
        return qos

    def _strongest_among(self, member_qids) -> QoSClass:
        """RELIABLE iff the set-like ``member_qids`` holds a RELIABLE user.

        A set or key view walks the smaller side, so a from_list costs
        O(reliable users) — O(1) while nobody is RELIABLE.
        """
        if member_qids.isdisjoint(self._reliable_users):
            return QoSClass.BEST_EFFORT
        return QoSClass.RELIABLE

    def forget_synthetic(self, qid: int) -> None:
        self._synthetic.pop(qid, None)

    def synthetic_class(self, qid: int) -> QoSClass:
        return self._synthetic.get(qid, QoSClass.BEST_EFFORT)

    def reliable_qids(self) -> Set[int]:
        """Synthetic qids currently requiring multipath delivery."""
        return {qid for qid, qos in self._synthetic.items()
                if qos is QoSClass.RELIABLE}

    def reset(self, user_classes: Optional[Mapping[int, "QoSClass"]] = None
              ) -> None:
        """Replace all bookkeeping in place (service-tier recovery).

        In-place because deployments alias one registry across the
        optimizer and the base-station app; swapping the object would
        leave the network flooding stale classes.
        """
        self._reliable_users.clear()
        self._synthetic.clear()
        for qid, qos in (user_classes or {}).items():
            self.register_user(qid, qos)

    def sync_with_table(self, table) -> None:
        """Re-derive every synthetic class from a tier-1 query table."""
        self._synthetic = {
            qid: self._strongest_among(record.from_list.keys())
            for qid, record in table.synthetic.items()}
