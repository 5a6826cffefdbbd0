"""Post-run traffic analysis: load distribution, hotspots, level breakdown.

Sensor networks funnel all traffic toward the sink, so the level-1 nodes
carry the most load and die first — the classic energy-hole problem.
These helpers turn a finished run's trace into the per-level and per-node
views that make such effects visible, and quantify how much each strategy
flattens the funnel (shared frames mean fewer relayed transmissions near
the base station).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.network import Topology
from ..sim.trace import EnergyModel, TraceCollector


@dataclass(frozen=True)
class LevelBreakdown:
    """Aggregated radio activity of one routing-tree level."""

    level: int
    node_count: int
    frames: int
    tx_time_ms: float
    sleep_ms: float

    @property
    def tx_time_per_node_ms(self) -> float:
        return self.tx_time_ms / self.node_count if self.node_count else 0.0


def level_breakdown(trace: TraceCollector,
                    topology: Topology) -> List[LevelBreakdown]:
    """Radio activity per BFS level (base station's level 0 included)."""
    by_level: Dict[int, List[int]] = {}
    for node, level in topology.levels.items():
        by_level.setdefault(level, []).append(node)
    result = []
    for level in sorted(by_level):
        nodes = by_level[level]
        frames = 0
        tx_time = 0.0
        sleep = 0.0
        for node in nodes:
            stats = trace.node_stats(node)
            frames += stats.tx_count
            tx_time += stats.tx_busy_ms
            sleep += stats.sleep_ms
        result.append(LevelBreakdown(level, len(nodes), frames, tx_time, sleep))
    return result


def hotspot_ratio(trace: TraceCollector, topology: Topology) -> float:
    """Level-1 per-node transmission time over the network-wide mean.

    1.0 means perfectly flat load; the funnel toward the sink typically
    pushes this well above 1.  Lower is better for network lifetime.
    """
    breakdown = [b for b in level_breakdown(trace, topology) if b.level >= 1]
    if not breakdown:
        return 0.0
    total_nodes = sum(b.node_count for b in breakdown)
    total_tx = sum(b.tx_time_ms for b in breakdown)
    if total_tx <= 0:
        return 0.0
    mean = total_tx / total_nodes
    level1 = next((b for b in breakdown if b.level == 1), None)
    if level1 is None or level1.node_count == 0:
        return 0.0
    return level1.tx_time_per_node_ms / mean


def busiest_nodes(trace: TraceCollector, topology: Topology,
                  count: int = 5) -> List[Tuple[int, float]]:
    """The ``count`` nodes with the highest transmission time (id, tx ms)."""
    loads = []
    for node in topology.node_ids:
        if node == topology.base_station:
            continue
        loads.append((node, trace.node_stats(node).tx_busy_ms))
    loads.sort(key=lambda pair: (-pair[1], pair[0]))
    return loads[:count]


def lifetime_estimate_days(
    trace: TraceCollector,
    topology: Topology,
    battery_j: float = 20_000.0,
    model: Optional[EnergyModel] = None,
) -> float:
    """Crude network-lifetime estimate: time until the *busiest* node
    exhausts a battery, extrapolating the measured duty cycle.

    The bottleneck node defines lifetime for tree networks — once a
    level-1 relay dies the funnel re-forms through its peers and they die
    in quick succession.
    """
    model = model or EnergyModel()
    elapsed = trace.elapsed_ms
    if elapsed <= 0:
        return float("inf")
    worst_rate = 0.0  # mJ per ms
    for node in topology.node_ids:
        if node == topology.base_station:
            continue
        stats = trace.node_stats(node)
        energy = model.energy_mj(stats.tx_busy_ms,
                                 min(stats.sleep_ms, elapsed), elapsed)
        worst_rate = max(worst_rate, energy / elapsed)
    if worst_rate <= 0:
        return float("inf")
    lifetime_ms = (battery_j * 1000.0) / worst_rate
    return lifetime_ms / (1000.0 * 3600.0 * 24.0)
