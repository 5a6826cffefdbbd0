"""Top-level simulation assembly.

:class:`Simulation` wires the engine, topology, radio channel, trace
collector, sensor world and per-node applications together — the role TOSSIM
plays for the paper's TinyDB deployment.

Usage::

    topo = Topology.grid(4)
    sim = Simulation(topo, world=SensorWorld.uniform(topo, seed=1))
    sim.install(lambda node: MyApp(...))
    sim.start()
    sim.run_for(60_000.0)
    print(sim.trace.summary())
    sim.close()

A simulation is a web of reference cycles while it runs (pending events
reach the nodes that scheduled them, nodes and their applications point at
each other).  :meth:`Simulation.close` cuts them, so reference counting
frees the run as soon as its owner drops it rather than at the next
full cyclic collection.  Whoever builds a simulation closes it once it is
done reading it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..obs import SimObs
from .engine import EventQueue
from .mac import MacParams
from .node import NodeApp, SensorNode
from .network import Topology
from .radio import Channel, RadioParams
from .trace import TraceCollector


class Simulation:
    """A fully wired packet-level sensor-network simulation."""

    def __init__(
        self,
        topology: Topology,
        world: Optional[object] = None,
        radio_params: Optional[RadioParams] = None,
        mac_params: Optional[MacParams] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.world = world
        self.seed = seed
        engine = self.engine = EventQueue()
        #: Observability bundle: metrics + spans + latency accounting,
        #: recording into the registry current at construction time on the
        #: engine's virtual clock (never the wall clock, so instrumented
        #: runs stay bit-identically deterministic).  The clock closes over
        #: the engine, not the simulation, so the bundle does not hold it.
        self.obs = SimObs(clock=lambda: engine.now)
        #: The radio ledger: every frame, collision, retransmission, drop
        #: and radio-off period of this simulation, reported once.
        self.trace = TraceCollector(self.engine, self.obs)
        self.channel = Channel(self.engine, topology, radio_params, self.trace,
                               seed=seed)
        self.nodes: Dict[int, SensorNode] = {
            node_id: SensorNode(node_id, self.engine, self.channel, topology,
                                self.trace, mac_params, seed=seed,
                                obs=self.obs)
            for node_id in topology.node_ids
        }
        self._started = False

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.engine.now

    @property
    def base_station(self) -> SensorNode:
        """The sink node (node 0 in the paper's deployments)."""
        return self.nodes[self.topology.base_station]

    def install(self, app_factory: Callable[[SensorNode], NodeApp]) -> None:
        """Attach an application to every node that does not have one yet."""
        for node_id in self.topology.node_ids:
            node = self.nodes[node_id]
            if node.app is None:
                node.attach_app(app_factory(node))

    def install_at(self, node_id: int, app: NodeApp) -> None:
        """Attach an application to one specific node (e.g. the base station)."""
        self.nodes[node_id].attach_app(app)

    def start(self) -> None:
        """Invoke every application's ``on_start`` hook exactly once."""
        if self._started:
            return
        self._started = True
        for node_id in self.topology.node_ids:
            self.nodes[node_id].start()

    def close(self) -> None:
        """Release the run: drop pending events, detach every application.

        Afterwards the trace, the nodes' counters and the applications'
        own state stay readable, but nothing runs: :meth:`run_until`
        raises :class:`~repro.sim.engine.SimulationError`.  Idempotent.
        """
        self.engine.close()
        self.channel.close()
        for node in self.nodes.values():
            node.close()

    def run_until(self, t_end: float) -> None:
        """Advance virtual time to ``t_end`` ms, executing all due events."""
        if not self._started:
            self.start()
        self.engine.run_until(t_end)

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` ms from now."""
        self.run_until(self.engine.now + duration)

    def average_transmission_time(self, exclude_base_station: bool = True) -> float:
        """The paper's headline metric over this run (see trace module)."""
        exclude = self.topology.base_station if exclude_base_station else None
        return self.trace.average_transmission_time(
            self.topology.node_ids, include_base_station=exclude
        )
