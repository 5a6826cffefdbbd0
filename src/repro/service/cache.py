"""The canonical-query cache: dedup before the optimizer ever runs.

The base-station optimizer (Algorithm 1) already merges *overlapping*
queries, but it still pays a cost-model evaluation per arrival and still
creates one user-query record per arrival.  At service scale the dominant
case is cruder: thousands of users submit *textually identical* queries
(everyone's dashboard asks for the same light level).  The cache keys live
queries by :func:`repro.queries.canonical.canonical_key`; a hit attaches
the new user to the existing *anchor* query by refcount and skips tier-1
entirely — the thousandth duplicate costs a dict lookup, not an
optimization pass.

The anchor query is released (and the optimizer's Algorithm 2 run) only
when the last user holding it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..queries.ast import Query
from ..queries.canonical import CanonicalKey


@dataclass
class CacheEntry:
    """One live canonical query and the number of users riding on it."""

    key: CanonicalKey
    #: The canonical query registered with the optimizer on behalf of
    #: every duplicate submission (its qid is the optimizer user qid).
    anchor: Query
    refcount: int = 0
    hits: int = 0

    @property
    def anchor_qid(self) -> int:
        return self.anchor.qid


class CanonicalQueryCache:
    """Refcounted map from canonical key to the live anchor query."""

    def __init__(self) -> None:
        self._entries: Dict[CanonicalKey, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.peak_entries = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def lookup(self, key: CanonicalKey) -> Optional[CacheEntry]:
        """The live entry for ``key``, counting a hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            entry.hits += 1
        return entry

    def insert(self, key: CanonicalKey, anchor: Query) -> CacheEntry:
        """Cache ``anchor`` as the live query for ``key`` (refcount 0)."""
        if key in self._entries:
            raise ValueError(f"canonical key already cached: {key}")
        entry = CacheEntry(key=key, anchor=anchor)
        self._entries[key] = entry
        self.peak_entries = max(self.peak_entries, len(self._entries))
        return entry

    # ------------------------------------------------------------------
    # Refcounting
    # ------------------------------------------------------------------
    def acquire(self, entry: CacheEntry) -> None:
        """Take one more reference on a cached anchor query."""
        entry.refcount += 1

    def release(self, key: CanonicalKey) -> Optional[CacheEntry]:
        """Drop one reference; returns the entry if it just went dead.

        A dead entry is removed from the cache — the caller must terminate
        its anchor query with the optimizer.
        """
        entry = self._entries[key]
        if entry.refcount <= 0:
            raise ValueError(f"refcount underflow for canonical key {key}")
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._entries[key]
            return entry
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[CanonicalKey, CacheEntry]:
        """A shallow copy of the live entries, keyed by canonical key."""
        return dict(self._entries)
