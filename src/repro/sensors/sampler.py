"""Per-node sampling with acquisition accounting.

TinyDB runs one acquisition per query per epoch; tier-2's *sharing over
time* (Section 3.2.1) instead fires one shared acquisition for every query
whose epoch boundary lands on the current GCD-clock tick.  :class:`Sampler`
makes the difference observable: it counts physical acquisitions and caches
readings within a firing instant, so a shared acquisition that serves five
queries costs one acquisition, while five unshared ones cost five.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .field import SensorWorld


class Sampler:
    """Samples the world on behalf of one node, counting acquisitions."""

    def __init__(self, world: SensorWorld, node_id: int) -> None:
        self._world = world
        self.node_id = node_id
        #: Number of physical sensor acquisitions performed.
        self.acquisitions = 0
        self._cache_time: Optional[float] = None
        self._cache: Dict[str, float] = {}

    def acquire(self, attributes: Iterable[str], time_ms: float,
                shared: bool = True) -> Dict[str, float]:
        """Sample ``attributes`` at ``time_ms``.

        With ``shared=True`` (tier-2 behaviour) attributes already sampled at
        this exact instant are served from cache and not re-acquired.  With
        ``shared=False`` (TinyDB baseline behaviour) every attribute costs a
        fresh acquisition even within the same instant.
        """
        if self._cache_time != time_ms:
            self._cache_time = time_ms
            self._cache = {}
        readings: Dict[str, float] = {}
        for attribute in attributes:
            if shared and attribute in self._cache:
                readings[attribute] = self._cache[attribute]
                continue
            value = self._world.sample(self.node_id, attribute, time_ms)
            self.acquisitions += 1
            self._cache[attribute] = value
            readings[attribute] = value
        return readings
