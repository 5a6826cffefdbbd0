"""The tier-1 cost model (Section 3.1.2, Eqs. 1-3).

Radio transmission dominates a mote's energy budget, so query cost is the
estimated radio-transmission time its results incur per unit time:

* Eq. (1): ``result(q, N_k) = sel(q, N_k) * |N_k| / epoch`` — result
  messages generated per ms by the level-k node set;
* Eq. (2): ``trans(q) = sum_k result(q, N_k) * k`` — transmissions
  including forwarding hops (exact for acquisition queries);
* aggregation queries use the lower bound ``result(q, N)`` — each
  contributing node transmits once and everything merges en route.  "This
  is conservative in that an aggregation query is integrated with an
  acquisition query only if it is guaranteed to be beneficial";
* Eq. (3): ``cost(q) = trans(q) * (C_start + C_trans * len(q))``.

Costs are *relative* guides for rewriting; retransmissions are assumed
proportional and omitted (they are measured in the experiments instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ...queries.ast import Query
from ...sensors.distributions import DistributionSet
from ...sim import messages as wire
from ...sim.radio import RadioParams


@dataclass(frozen=True)
class NetworkProfile:
    """What the base station knows about the deployed network.

    ``level_sizes`` maps routing-tree level k (>= 1) to ``|N_k|``; the base
    station itself (level 0) is excluded.  ``c_start``/``c_trans`` come from
    the sensor specifications and periodic measurement (Section 3.1.2's
    "Statistics" paragraph).
    """

    level_sizes: Mapping[int, int]
    c_start: float
    c_trans: float

    @classmethod
    def from_topology(cls, topology, radio: Optional[RadioParams] = None) -> "NetworkProfile":
        """Profile an actual simulated deployment."""
        radio = radio or RadioParams()
        sizes = {k: n for k, n in topology.level_sizes().items() if k >= 1}
        return cls(level_sizes=sizes, c_start=radio.c_start, c_trans=radio.c_trans)

    @classmethod
    def uniform_depth(cls, n_nodes: int, max_depth: int,
                      c_start: float = 2.0, c_trans: float = 1.0 / 4.8) -> "NetworkProfile":
        """A synthetic profile with nodes spread evenly over levels.

        Used by the pure tier-1 experiments (Figure 4), which never deploy a
        simulated network.
        """
        per_level = n_nodes // max_depth
        sizes = {k: per_level for k in range(1, max_depth + 1)}
        remainder = n_nodes - per_level * max_depth
        for k in range(1, remainder + 1):
            sizes[k] += 1
        return cls(level_sizes=sizes, c_start=c_start, c_trans=c_trans)

    @property
    def n_sensors(self) -> int:
        return sum(self.level_sizes.values())

    @property
    def max_depth(self) -> int:
        return max(self.level_sizes) if self.level_sizes else 0

    def average_depth(self) -> float:
        n = self.n_sensors
        if n == 0:
            return 0.0
        return sum(k * size for k, size in self.level_sizes.items()) / n


class CostModel:
    """Evaluates Eqs. (1)-(3) for queries against a network profile."""

    def __init__(self, profile: NetworkProfile, distributions: DistributionSet) -> None:
        self.profile = profile
        self.distributions = distributions

    @property
    def version(self) -> int:
        """Statistics version: a stored ``cost(q)`` holds while it stands."""
        return self.distributions.version

    # ------------------------------------------------------------------
    # Eq. (1)
    # ------------------------------------------------------------------
    def selectivity(self, query: Query) -> float:
        """``sel(q, N_k)``; one distribution serves all levels (Section 4.1)."""
        return query.predicates.selectivity(self.distributions)

    # ------------------------------------------------------------------
    # Eq. (2) and the aggregation lower bound
    # ------------------------------------------------------------------
    def transmissions(self, query: Query) -> float:
        """Estimated transmissions per ms attributable to ``query``."""
        return self.transmissions_at(query, self.selectivity(query))

    def transmissions_at(self, query: Query, sel: float) -> float:
        """Eq. (2) at selectivity ``sel``: each level's result rate
        (Eq. 1) times its depth, summed over levels."""
        if query.is_acquisition:
            return sum(sel * size / query.epoch_ms * k
                       for k, size in self.profile.level_sizes.items())
        # Aggregation: lower bound — every contributing node sends once.
        return sel * self.profile.n_sensors / query.epoch_ms

    # ------------------------------------------------------------------
    # Message length
    # ------------------------------------------------------------------
    def message_length(self, query: Query) -> int:
        """Estimated result-frame length ``len(q)`` in bytes."""
        if query.is_acquisition:
            payload = wire.result_payload_bytes(len(query.attributes), 1)
        else:
            payload = wire.aggregate_payload_bytes(len(query.aggregates), 1)
        return wire.HEADER_BYTES + payload

    # ------------------------------------------------------------------
    # Eq. (3)
    # ------------------------------------------------------------------
    def hop_cost(self, query: Query) -> float:
        """Cost of one hop of one result frame: ``C_start + C_trans*len``."""
        return self.profile.c_start + self.profile.c_trans * self.message_length(query)

    def cost(self, query: Query) -> float:
        """``cost(q)``: expected transmission time per ms of network time."""
        return self.transmissions(query) * self.hop_cost(query)

    def benefit(self, q1: Query, q2: Query, merged: Query) -> float:
        """``benefit(q1, q2) = cost(q1) + cost(q2) - cost(q12)``."""
        return self.cost(q1) + self.cost(q2) - self.cost(merged)
