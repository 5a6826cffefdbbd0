"""Batched admission: coalesce bursts into one optimization pass.

Arrivals within a configurable window are queued and admitted together
under a single lock.  Two effects at scale:

* duplicates *within* the batch dedup against each other before any of
  them exists in the cache — a burst of 50 identical queries costs one
  tier-1 pass, not 50 cache misses;
* the lock (and the optimizer's cost-model work) is taken once per burst
  instead of once per arrival, which is what keeps admission latency flat
  when a popular event makes everyone's dashboard reconnect at once.

``window_ms = 0`` degenerates to synchronous per-submit admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..queries.ast import Query
from ..queries.canonical import CanonicalKey


@dataclass
class PendingAdmission:
    """One submitted query waiting for the next batch flush."""

    ticket_id: int
    session_id: str
    #: Canonical form of the submitted query (fresh qid; becomes the cache
    #: anchor if this turns out to be the first submission of its kind).
    query: Query
    key: CanonicalKey
    submitted_ms: float


class AdmissionBatcher:
    """Accumulates pending admissions until the window closes."""

    def __init__(self, window_ms: float = 0.0) -> None:
        if window_ms < 0:
            raise ValueError(f"window must be non-negative (got {window_ms})")
        self.window_ms = window_ms
        self._pending: List[PendingAdmission] = []
        self._window_opened_ms: Optional[float] = None
        self.batches_flushed = 0
        self.max_batch_size = 0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, pending: PendingAdmission, now_ms: float) -> None:
        """Queue a submission, opening the batch window if it was empty."""
        if not self._pending:
            self._window_opened_ms = now_ms
        self._pending.append(pending)

    def due(self, now_ms: float) -> bool:
        """True when the open window has elapsed (or batching is off)."""
        if not self._pending:
            return False
        if self.window_ms == 0:
            return True
        assert self._window_opened_ms is not None
        return now_ms - self._window_opened_ms >= self.window_ms

    def cancel(self, ticket_id: int) -> bool:
        """Drop a not-yet-admitted submission (session closed mid-window).

        The entry is removed, not tombstoned, and the window closes with
        its last entry: a snapshot keeps only live entries, so a tombstone
        would make :meth:`due` (and with it what ``tick`` journals) differ
        between a live batcher and one restored from a snapshot.
        """
        for index, pending in enumerate(self._pending):
            if pending.ticket_id == ticket_id:
                del self._pending[index]
                if not self._pending:
                    self._window_opened_ms = None
                return True
        return False

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def drain(self) -> List[PendingAdmission]:
        """Take the whole batch."""
        batch = list(self._pending)
        self._pending.clear()
        self._window_opened_ms = None
        if batch:
            self.batches_flushed += 1
            self.max_batch_size = max(self.max_batch_size, len(batch))
        return batch

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Durability (repro.service.durability snapshots)
    # ------------------------------------------------------------------
    def pending(self) -> List[PendingAdmission]:
        """The open window's submissions, in order."""
        return list(self._pending)

    @property
    def window_opened_ms(self) -> Optional[float]:
        return self._window_opened_ms

    def restore_window(self, window_opened_ms: Optional[float],
                       batches_flushed: int, max_batch_size: int) -> None:
        """Restore snapshot bookkeeping (pending entries re-``add``-ed
        first)."""
        self._window_opened_ms = window_opened_ms
        self.batches_flushed = batches_flushed
        self.max_batch_size = max_batch_size
