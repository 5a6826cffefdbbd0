"""The multi-tenant question pool of a partitioned field.

:func:`build_query_pool` mixes *global* questions (fanned out to every
shard and merged at the root) with one *region-local* question per shard
(``nodeid BETWEEN`` one shard's band, routed to that shard alone).
"""

from __future__ import annotations

from typing import List, Tuple

from .partition import FieldPartition

#: Globally scoped questions (span every region, merged at the root).
_GLOBAL_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
)


def build_query_pool(partition: FieldPartition) -> Tuple[str, ...]:
    """Global questions interleaved with one local question per region."""
    local = tuple(
        f"SELECT temp FROM sensors WHERE nodeid BETWEEN "
        f"{region.sensor_ids[0]} AND {region.sensor_ids[-1]} "
        f"EPOCH DURATION 4096"
        for region in partition.regions)
    pool: List[str] = []
    for index in range(max(len(_GLOBAL_POOL), len(local))):
        if index < len(_GLOBAL_POOL):
            pool.append(_GLOBAL_POOL[index])
        if index < len(local):
            pool.append(local[index])
    return tuple(pool)
