"""Synthetic sensed environment (substitute for mica-mote sensors).

The paper's queries read ``nodeid``, ``light`` and ``temp`` (Section 4.3).
Two world models are provided:

* :class:`UniformModel` — every sample is an independent uniform draw over
  the attribute range.  This matches the assumption of the paper's worked
  cost-model example ("we assume all the sensor readings are uniform
  distribution") and makes predicate *range coverage* equal predicate
  *selectivity*, which Figure 5's sweep relies on.
* :class:`CorrelatedModel` — readings are spatially and temporally
  correlated ("in real applications, sensor readings are often spatially and
  temporally correlated", Section 3.2.2), built from a few smooth random
  spatial modes plus a slow temporal drift and small measurement noise.
  Marginal values still cover the full range so selectivity estimates stay
  meaningful.

All randomness is derived from hash mixing, so a world is a pure function of
``(seed, node, attribute, time)`` — simulations are reproducible and samples
never depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Topology

#: Attribute ranges used throughout the evaluation (TinyDB-era raw scales).
LIGHT_RANGE = (0.0, 1000.0)
TEMP_RANGE = (0.0, 100.0)


@dataclass(frozen=True)
class AttributeSpec:
    """One sensed attribute and its value range."""

    name: str
    lo: float
    hi: float

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def clamp(self, value: float) -> float:
        return min(self.hi, max(self.lo, value))


def standard_attributes(n_nodes: int) -> Dict[str, AttributeSpec]:
    """The (nodeid, light, temp) schema of Section 4.3."""
    return {
        "nodeid": AttributeSpec("nodeid", 0.0, float(max(n_nodes - 1, 1))),
        "light": AttributeSpec("light", *LIGHT_RANGE),
        "temp": AttributeSpec("temp", *TEMP_RANGE),
    }


def position_attributes(topology: "Topology") -> Dict[str, AttributeSpec]:
    """Static ``x``/``y`` coordinate attributes over a deployment.

    These make *region-based* queries expressible
    (``WHERE x > 40 AND y < 60``), the second class of
    known-answer-set queries Section 3.2.2 mentions alongside node-id
    queries; the Semantic Routing Tree disseminates them spatially.
    """
    xs = [p[0] for p in topology.positions.values()]
    ys = [p[1] for p in topology.positions.values()]
    return {
        "x": AttributeSpec("x", min(xs), max(max(xs), min(xs) + 1.0)),
        "y": AttributeSpec("y", min(ys), max(max(ys), min(ys) + 1.0)),
    }


@functools.lru_cache(maxsize=None)
def _attr_salt(name: str) -> int:
    """Stable per-attribute salt, computed once per name (a world has a few).

    Built-in ``hash()`` of a *string* is randomized per process
    (PYTHONHASHSEED), which would make the same seed produce different
    worlds in different interpreter runs.
    """
    x = 0
    for ch in name.encode():
        x = (x * 131 + ch) & 0xFFFFFFFF
    return x


def _mix(*parts: int) -> float:
    """Deterministic hash of integer parts -> float in [0, 1)."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x ^= (p & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15 + ((x << 6) & 0xFFFFFFFFFFFFFFFF) + (x >> 2)
        x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    return (x & 0xFFFFFFFFFFFF) / float(1 << 48)


class UniformModel:
    """Independent uniform readings; time quantised to ``resolution_ms``."""

    def __init__(self, seed: int = 0, resolution_ms: float = 1024.0) -> None:
        self._seed = seed
        self._resolution = resolution_ms

    def value(self, spec: AttributeSpec, node_id: int,
              position: Tuple[float, float], time_ms: float) -> float:
        bucket = int(time_ms // self._resolution)
        u = _mix(self._seed, _attr_salt(spec.name), node_id, bucket)
        return spec.lo + u * spec.span


class CorrelatedModel:
    """Smooth spatio-temporally correlated readings.

    value = range-scaled ( mean + sum_k a_k sin(k_x x + k_y y + phase_k)
            + drift sin(2 pi t / period + phase_t) + noise )

    ``spatial_scale_ft`` controls how far correlation reaches: neighbouring
    nodes (20 ft apart) see similar values, so the spatially connected query
    answer sets the tier-2 discussion predicts actually arise.
    """

    def __init__(
        self,
        seed: int = 0,
        n_modes: int = 3,
        spatial_scale_ft: float = 120.0,
        temporal_period_ms: float = 600_000.0,
        noise: float = 0.03,
    ) -> None:
        self._seed = seed
        self._noise = noise
        self._period = temporal_period_ms
        self._modes = []
        for k in range(n_modes):
            angle = 2 * math.pi * _mix(seed, 101, k)
            wavelength = spatial_scale_ft * (0.75 + 0.5 * _mix(seed, 103, k))
            freq = 2 * math.pi / wavelength
            phase = 2 * math.pi * _mix(seed, 107, k)
            amp = 0.5 / (k + 1)
            self._modes.append((freq * math.cos(angle), freq * math.sin(angle), phase, amp))
        self._tphase = 2 * math.pi * _mix(seed, 109)

    def value(self, spec: AttributeSpec, node_id: int,
              position: Tuple[float, float], time_ms: float) -> float:
        if spec.name == "nodeid":
            return float(node_id)
        x, y = position
        attr_salt = _attr_salt(spec.name) & 0xFFFF
        raw = 0.0
        for i, (kx, ky, phase, amp) in enumerate(self._modes):
            raw += amp * math.sin(kx * x + ky * y + phase + attr_salt + i)
        raw += 0.35 * math.sin(2 * math.pi * time_ms / self._period + self._tphase + attr_salt)
        bucket = int(time_ms // 1024.0)
        raw += self._noise * (2 * _mix(self._seed, attr_salt, node_id, bucket) - 1)
        # raw is roughly in [-1.2, 1.2]; map to the attribute range.
        u = 0.5 + raw / 2.4
        return spec.clamp(spec.lo + u * spec.span)


class SensorWorld:
    """The sensed environment every node samples from."""

    def __init__(self, topology: "Topology", specs: Mapping[str, AttributeSpec],
                 model) -> None:
        self._topology = topology
        self.specs: Dict[str, AttributeSpec] = dict(specs)
        self._model = model

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, topology: "Topology", seed: int = 0) -> "SensorWorld":
        specs = dict(standard_attributes(topology.size))
        specs.update(position_attributes(topology))
        return cls(topology, specs, UniformModel(seed))

    @classmethod
    def correlated(cls, topology: "Topology", seed: int = 0, **kwargs) -> "SensorWorld":
        specs = dict(standard_attributes(topology.size))
        specs.update(position_attributes(topology))
        return cls(topology, specs, CorrelatedModel(seed, **kwargs))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def topology(self) -> "Topology":
        """The deployment this world is sampled over."""
        return self._topology

    def spec(self, attribute: str) -> AttributeSpec:
        spec = self.specs.get(attribute)
        if spec is None:
            raise KeyError(f"unknown attribute {attribute!r}; "
                           f"known: {sorted(self.specs)}")
        return spec

    def sample(self, node_id: int, attribute: str, time_ms: float) -> float:
        """One physical reading of ``attribute`` at ``node_id``."""
        spec = self.spec(attribute)
        if attribute == "nodeid":
            return float(node_id)
        position = self._topology.positions[node_id]
        if attribute == "x":
            return position[0]
        if attribute == "y":
            return position[1]
        return self._model.value(spec, node_id, position, time_ms)

    def sample_many(self, node_id: int, attributes: Iterable[str],
                    time_ms: float) -> Dict[str, float]:
        """Readings for several attributes at one instant."""
        return {a: self.sample(node_id, a, time_ms) for a in attributes}
