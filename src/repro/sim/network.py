"""Network topology: node placement, connectivity, link quality, levels.

The paper deploys sensors "uniformly in an n x n two-dimensional grid, with
the base station node 0 at the upper left corner.  The radio transmission
radius is set to be 50 feet, while the grid spacing is 20 feet" (Section 4.1).
:func:`Topology.grid` reproduces exactly that; :func:`Topology.from_links`
supports hand-built topologies such as the Figure 2 worked example.

Levels are BFS hop counts from the base station; they define the ``N_k`` sets
of the cost model (Eq. 1-2) and the "upper level neighbour" relation used by
the tier-2 DAG.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .engine import SimulationError

#: Default deployment constants from Section 4.1.
GRID_SPACING_FT = 20.0
RADIO_RANGE_FT = 50.0


def _distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _deterministic_jitter(u: int, v: int, seed: int) -> float:
    """A stable pseudo-random value in [0, 1) for the unordered pair {u, v}.

    Link-quality jitter must be symmetric and reproducible without carrying a
    stateful RNG, so we hash the pair with a small integer mix.
    """
    lo, hi = (u, v) if u < v else (v, u)
    x = (lo * 2654435761 + hi * 40503 + seed * 97) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 2246822519) & 0xFFFFFFFF
    x ^= x >> 13
    return (x & 0xFFFFFF) / float(1 << 24)


@dataclass
class Topology:
    """Immutable connectivity information for one deployment.

    Attributes
    ----------
    positions:
        Node id -> (x, y) coordinates in feet.
    base_station:
        Id of the sink node (always 0 in the paper's experiments).
    neighbors:
        Symmetric adjacency derived from the radio range.
    link_quality:
        Quality in (0, 1] per undirected edge, keyed by ordered pair both
        ways.  Decreases with distance, with a small deterministic jitter so
        ties break reproducibly (TinyDB picks parents by link quality).
    levels:
        BFS hop count from the base station (base station = level 0).
    """

    positions: Dict[int, Tuple[float, float]]
    base_station: int
    neighbors: Dict[int, Set[int]]
    link_quality: Dict[Tuple[int, int], float]
    levels: Dict[int, int]
    radio_range: float = RADIO_RANGE_FT
    _upper_cache: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        side: int,
        spacing: float = GRID_SPACING_FT,
        radio_range: float = RADIO_RANGE_FT,
        quality_seed: int = 0,
    ) -> "Topology":
        """Build the paper's ``side x side`` grid deployment.

        Node ids run row-major from 0 (upper-left corner, the base station).
        """
        if side < 1:
            raise SimulationError(f"grid side must be >= 1 (got {side})")
        positions = {
            row * side + col: (col * spacing, row * spacing)
            for row in range(side)
            for col in range(side)
        }
        return cls.from_positions(positions, base_station=0,
                                  radio_range=radio_range, quality_seed=quality_seed)

    @classmethod
    def random(
        cls,
        n_nodes: int,
        area_ft: float,
        seed: int = 0,
        radio_range: float = RADIO_RANGE_FT,
        base_station: int = 0,
        max_attempts: int = 200,
    ) -> "Topology":
        """A random uniform deployment over an ``area_ft``-square field.

        The paper's evaluation uses regular grids; real deployments rarely
        are, so this constructor scatters nodes uniformly (rejection-
        sampling placements until the network is connected).  The base
        station is pinned at the upper-left corner like the grid's node 0.

        Raises :class:`SimulationError` if no connected placement is found
        within ``max_attempts`` — a sign the density is too low for the
        radio range.
        """
        import random as _random

        if n_nodes < 1:
            raise SimulationError(f"need at least one node (got {n_nodes})")
        rng = _random.Random((seed << 16) ^ 0x70B0)
        for _ in range(max_attempts):
            positions = {base_station: (0.0, 0.0)}
            node_id = 0
            while len(positions) < n_nodes:
                node_id += 1
                if node_id == base_station:
                    continue
                positions[node_id] = (rng.uniform(0.0, area_ft),
                                      rng.uniform(0.0, area_ft))
            try:
                return cls.from_positions(positions, base_station=base_station,
                                          radio_range=radio_range,
                                          quality_seed=seed)
            except SimulationError:
                continue  # disconnected placement: re-scatter
        raise SimulationError(
            f"no connected random deployment of {n_nodes} nodes over "
            f"{area_ft}x{area_ft} ft within {max_attempts} attempts; "
            f"increase density or radio range"
        )

    @classmethod
    def from_positions(
        cls,
        positions: Mapping[int, Tuple[float, float]],
        base_station: int = 0,
        radio_range: float = RADIO_RANGE_FT,
        quality_seed: int = 0,
    ) -> "Topology":
        """Build a topology from explicit coordinates; edges = within range."""
        if base_station not in positions:
            raise SimulationError(f"base station {base_station} has no position")
        ids = sorted(positions)
        neighbors: Dict[int, Set[int]] = {i: set() for i in ids}
        quality: Dict[Tuple[int, int], float] = {}
        for i_idx, u in enumerate(ids):
            for v in ids[i_idx + 1:]:
                d = _distance(positions[u], positions[v])
                if 0 < d <= radio_range:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
                    q = cls._quality_from_distance(d, radio_range, u, v, quality_seed)
                    quality[(u, v)] = q
                    quality[(v, u)] = q
        levels = cls._bfs_levels(neighbors, base_station)
        topo = cls(dict(positions), base_station, neighbors, quality, levels,
                   radio_range=radio_range)
        topo.validate()
        return topo

    @classmethod
    def from_links(
        cls,
        links: Iterable[Tuple[int, int]],
        base_station: int = 0,
        quality: Optional[Mapping[Tuple[int, int], float]] = None,
        quality_seed: int = 0,
    ) -> "Topology":
        """Build a topology from an explicit edge list (no geometry).

        Used for hand-drawn topologies such as the Figure 2 example, where
        the paper specifies radio connectivity directly.  Node positions are
        synthesized on a line purely for reporting.
        """
        neighbors: Dict[int, Set[int]] = {}
        for u, v in links:
            neighbors.setdefault(u, set()).add(v)
            neighbors.setdefault(v, set()).add(u)
        neighbors.setdefault(base_station, set())
        qual: Dict[Tuple[int, int], float] = {}
        for u, nbrs in neighbors.items():
            for v in nbrs:
                if (u, v) in qual:
                    continue
                if quality is not None and (u, v) in quality:
                    q = quality[(u, v)]
                elif quality is not None and (v, u) in quality:
                    q = quality[(v, u)]
                else:
                    q = 0.75 + 0.25 * _deterministic_jitter(u, v, quality_seed)
                qual[(u, v)] = q
                qual[(v, u)] = q
        positions = {node: (float(i), 0.0) for i, node in enumerate(sorted(neighbors))}
        levels = cls._bfs_levels(neighbors, base_station)
        topo = cls(positions, base_station, neighbors, qual, levels)
        topo.validate()
        return topo

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """All node ids in ascending order (base station included)."""
        return sorted(self.positions)

    @property
    def size(self) -> int:
        """Number of nodes in the topology."""
        return len(self.positions)

    @property
    def max_depth(self) -> int:
        """Deepest BFS level — the ``max_depth`` of Eq. (2)."""
        return max(self.levels.values())

    def nodes_at_level(self, k: int) -> List[int]:
        """The set ``N_k`` of Eq. (1): nodes exactly k hops from the sink."""
        return sorted(n for n, lvl in self.levels.items() if lvl == k)

    def level_sizes(self) -> Dict[int, int]:
        """``|N_k|`` for every level (level -> node count)."""
        sizes: Dict[int, int] = {}
        for lvl in self.levels.values():
            sizes[lvl] = sizes.get(lvl, 0) + 1
        return sizes

    def average_depth(self) -> float:
        """Average routing-tree depth ``d = sum_k |N_k| * k / |N|``.

        Matches the definition in the Section 3.1.3 worked example.  The base
        station itself (level 0) is excluded from |N|, since it generates no
        result messages.
        """
        sensors = [lvl for n, lvl in self.levels.items() if n != self.base_station]
        if not sensors:
            return 0.0
        return sum(sensors) / len(sensors)

    def upper_neighbors(self, node: int) -> List[int]:
        """Neighbours exactly one level closer to the base station.

        These are the candidate DAG parents of Section 3.2.2, sorted by
        descending link quality (then by id) so tie-breaking is deterministic.
        """
        cached = self._upper_cache.get(node)
        if cached is not None:
            return list(cached)
        lvl = self.levels[node]
        ups = [v for v in self.neighbors[node] if self.levels.get(v) == lvl - 1]
        ups.sort(key=lambda v: (-self.link_quality[(node, v)], v))
        self._upper_cache[node] = ups
        return list(ups)

    def in_range(self, u: int, v: int) -> bool:
        """Can ``u`` hear ``v``?  Radio-range adjacency, symmetric."""
        return v in self.neighbors.get(u, ())

    def quality(self, u: int, v: int) -> float:
        """Link quality of the directed edge ``u -> v`` in [0, 1]."""
        return self.link_quality[(u, v)]

    def validate(self) -> None:
        """Check structural invariants; raise :class:`SimulationError` if broken."""
        unreachable = [n for n in self.positions if n not in self.levels]
        if unreachable:
            raise SimulationError(
                f"nodes unreachable from base station {self.base_station}: {unreachable}"
            )
        for u, nbrs in self.neighbors.items():
            for v in nbrs:
                if u not in self.neighbors[v]:
                    raise SimulationError(f"asymmetric link {u}->{v}")
                if (u, v) not in self.link_quality:
                    raise SimulationError(f"missing link quality for ({u}, {v})")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _quality_from_distance(
        d: float, radio_range: float, u: int, v: int, seed: int
    ) -> float:
        """Link quality in (0, 1]: near-perfect close by, degrading with range."""
        base = 1.0 - 0.4 * (d / radio_range) ** 2
        jitter = 0.05 * (_deterministic_jitter(u, v, seed) - 0.5)
        return max(0.05, min(1.0, base + jitter))

    @staticmethod
    def _bfs_levels(neighbors: Mapping[int, Set[int]], root: int) -> Dict[int, int]:
        levels = {root: 0}
        frontier = deque([root])
        while frontier:
            u = frontier.popleft()
            for v in neighbors[u]:
                if v not in levels:
                    levels[v] = levels[u] + 1
                    frontier.append(v)
        return levels
