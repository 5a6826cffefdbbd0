"""TinyDB's fixed, query-ignorant routing tree.

"In TinyDB, a parent node is associated with each node based on the link
quality, and hence a fixed routing tree is constructed, which is ignorant of
the query space" (Section 3.2.2).  Every node picks its best-quality
neighbour one level closer to the base station; the result is the tree the
baseline (and tier-1-only) strategies route over, and the tree whose level
sets ``N_k`` parameterise the tier-1 cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..sim.engine import SimulationError
from ..sim.network import Topology


@dataclass
class RoutingTree:
    """A rooted spanning tree over the topology."""

    root: int
    parent: Dict[int, int]
    children: Dict[int, List[int]]
    depth: Dict[int, int]

    @classmethod
    def build(cls, topology: Topology) -> "RoutingTree":
        """Best-link-quality parent selection over BFS levels."""
        root = topology.base_station
        parent: Dict[int, int] = {}
        children: Dict[int, List[int]] = {n: [] for n in topology.node_ids}
        for node in topology.node_ids:
            if node == root:
                continue
            uppers = topology.upper_neighbors(node)
            if not uppers:
                raise SimulationError(f"node {node} has no upper-level neighbour")
            best = uppers[0]  # already sorted by quality desc, id asc
            parent[node] = best
            children[best].append(node)
        depth = dict(topology.levels)
        return cls(root=root, parent=parent, children=children, depth=depth)

    def path_to_root(self, node: int) -> List[int]:
        """Nodes visited forwarding from ``node`` to the root, inclusive."""
        path = [node]
        seen: Set[int] = {node}
        while path[-1] != self.root:
            nxt = self.parent[path[-1]]
            if nxt in seen:
                raise SimulationError(f"routing-tree cycle at {nxt}")
            path.append(nxt)
            seen.add(nxt)
        return path

    def hops_to_root(self, node: int) -> int:
        return len(self.path_to_root(node)) - 1

    def subtree(self, node: int) -> List[int]:
        """All descendants of ``node`` (excluding itself), preorder."""
        result: List[int] = []
        stack = list(self.children.get(node, ()))
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self.children.get(current, ()))
        return result

    @property
    def max_depth(self) -> int:
        return max(self.depth.values())
