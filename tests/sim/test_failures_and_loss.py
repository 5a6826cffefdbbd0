"""Unit tests for the reliability extensions: lossy links, node failures,
and the energy model."""

import pytest

from repro.sim import (
    EnergyModel,
    MessageKind,
    RadioParams,
    Simulation,
    Topology,
)
from repro.sim.node import NodeApp


class _EchoApp(NodeApp):
    def __init__(self):
        self.messages = []

    def on_message(self, msg):
        self.messages.append(msg)


def _sim(**kwargs):
    sim = Simulation(Topology.grid(2), **kwargs)
    apps = {}

    def factory(node):
        app = _EchoApp()
        apps[node.node_id] = app
        return app

    sim.install(factory)
    sim.start()
    return sim, apps


class TestLossyLinks:
    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            RadioParams(loss_rate=1.0)
        with pytest.raises(ValueError):
            RadioParams(loss_rate=-0.1)

    def test_zero_loss_is_default(self):
        assert RadioParams().loss_rate == 0.0

    def test_high_loss_drops_broadcasts(self):
        sim, apps = _sim(radio_params=RadioParams(loss_rate=0.9), seed=4)
        for i in range(50):
            sim.engine.schedule_at(100.0 * (i + 1), sim.nodes[0].broadcast,
                                   MessageKind.MAINTENANCE, i, 4)
        sim.run_for(10_000.0)
        # each of 3 receivers gets ~10% of 50 frames
        received = sum(len(app.messages) for n, app in apps.items() if n != 0)
        assert received < 50  # far below the lossless 150

    def test_unicast_retries_recover_moderate_loss(self):
        sim, apps = _sim(radio_params=RadioParams(loss_rate=0.3), seed=4)
        for i in range(20):
            sim.engine.schedule_at(200.0 * (i + 1), sim.nodes[0].send,
                                   MessageKind.RESULT, 1, i, 4)
        sim.run_for(20_000.0)
        # acknowledged unicast with retries: nearly everything arrives
        payloads = {m.payload for m in apps[1].messages}
        assert len(payloads) >= 18

    def test_loss_is_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            sim, apps = _sim(radio_params=RadioParams(loss_rate=0.5), seed=7)
            for i in range(30):
                sim.engine.schedule_at(100.0 * (i + 1), sim.nodes[0].broadcast,
                                       MessageKind.MAINTENANCE, i, 4)
            sim.run_for(10_000.0)
            outcomes.append(tuple(len(apps[n].messages) for n in (1, 2, 3)))
        assert outcomes[0] == outcomes[1]


class TestNodeFailure:
    def test_failed_node_neither_sends_nor_receives(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].fail(5_000.0)
        assert sim.nodes[1].failed
        assert sim.nodes[1].send(MessageKind.RESULT, 0, "x", 4) is None
        sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "ping", 4)
        sim.run_for(1_000.0)
        assert apps[1].messages == []

    def test_recovery_restores_operation(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].fail(1_000.0)
        sim.run_for(1_500.0)
        assert not sim.nodes[1].failed
        sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "ping", 4)
        sim.run_for(1_000.0)
        assert [m.payload for m in apps[1].messages] == ["ping"]

    def test_sleep_wake_does_not_resurrect_failed_node(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].sleep(100.0)       # pending wake at t=100
        sim.nodes[1].fail(5_000.0)      # failure supersedes the sleep
        sim.run_for(200.0)
        assert sim.nodes[1].failed
        assert sim.nodes[1].asleep      # radio stays down past the wake

    def test_failure_extension(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].fail(1_000.0)
        sim.run_for(500.0)
        sim.nodes[1].fail(2_000.0)      # extend while already failed
        sim.run_for(1_000.0)            # t=1500: original deadline passed
        assert sim.nodes[1].failed
        sim.run_for(1_200.0)            # t=2700: extended deadline passed
        assert not sim.nodes[1].failed

    def test_frame_held_through_an_outage_is_sent_after_recovery(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].send(MessageKind.RESULT, 0, "before", 4)
        sim.nodes[1].fail(1_000.0)      # MAC holds it, attempt still pending
        sim.run_for(1_500.0)
        sim.nodes[1].send(MessageKind.RESULT, 0, "after", 4)
        sim.run_for(1_000.0)
        assert [m.payload for m in apps[0].messages] == ["before", "after"]
        assert sim.nodes[1].mac.idle


class TestEnergyModel:
    def test_energy_accounting(self):
        model = EnergyModel(tx_mw=60.0, listen_mw=24.0, sleep_mw=0.03)
        # 100 ms tx, 400 ms sleep, 500 ms listen over 1 s
        energy = model.energy_mj(100.0, 400.0, 1000.0)
        assert energy == pytest.approx((60 * 100 + 24 * 500 + 0.03 * 400) / 1000)

    def test_sleep_saves_energy(self):
        model = EnergyModel()
        awake = model.energy_mj(0.0, 0.0, 10_000.0)
        asleep = model.energy_mj(0.0, 9_000.0, 10_000.0)
        assert asleep < awake * 0.2

    def test_trace_average_energy(self):
        sim, apps = _sim(seed=1)
        sim.nodes[1].sleep(5_000.0)
        sim.run_for(10_000.0)
        sleepy_included = sim.trace.average_energy_mj([1])
        never_slept = sim.trace.average_energy_mj([2])
        assert sleepy_included < never_slept
