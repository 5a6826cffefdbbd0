"""Packet-level discrete-event sensor-network simulator (TOSSIM substitute).

Layers, bottom-up:

* :mod:`repro.sim.engine` — event queue and timers;
* :mod:`repro.sim.network` — topology, link quality, BFS levels;
* :mod:`repro.sim.messages` — frame formats and sizes;
* :mod:`repro.sim.radio` — broadcast channel, airtime, collisions;
* :mod:`repro.sim.mac` — CSMA with ack'd unicast/multicast retransmission;
* :mod:`repro.sim.node` — mote runtime (timers, sleep mode, app dispatch);
* :mod:`repro.sim.trace` — per-node radio accounting (the paper's metric);
* :mod:`repro.sim.runtime` — :class:`Simulation`, the assembled stack.
"""

from .engine import Event, EventQueue, PeriodicTimer, SimulationError
from .mac import MacLayer, MacParams
from .messages import (
    BROADCAST,
    Message,
    MessageKind,
    abort_payload_bytes,
    aggregate_payload_bytes,
    maintenance_payload_bytes,
    query_payload_bytes,
    result_payload_bytes,
)
from .network import GRID_SPACING_FT, RADIO_RANGE_FT, Topology
from .node import NodeApp, SensorNode
from .radio import Channel, DeliveryReport, GilbertElliottParams, RadioParams
from .runtime import Simulation
from .trace import EnergyModel, NodeStats, TraceCollector

__all__ = [
    "BROADCAST",
    "Channel",
    "DeliveryReport",
    "EnergyModel",
    "Event",
    "EventQueue",
    "GRID_SPACING_FT",
    "MacLayer",
    "MacParams",
    "Message",
    "MessageKind",
    "NodeApp",
    "NodeStats",
    "PeriodicTimer",
    "RADIO_RANGE_FT",
    "GilbertElliottParams",
    "RadioParams",
    "SensorNode",
    "Simulation",
    "SimulationError",
    "Topology",
    "TraceCollector",
    "abort_payload_bytes",
    "aggregate_payload_bytes",
    "maintenance_payload_bytes",
    "query_payload_bytes",
    "result_payload_bytes",
]
