"""Unit tests for the sensor-node runtime (timers, sleep, dispatch)."""

import pytest

from repro.sim.messages import MessageKind
from repro.sim.network import Topology
from repro.sim.node import NodeApp
from repro.sim.runtime import Simulation


class _RecorderApp(NodeApp):
    def __init__(self):
        self.started = False
        self.messages = []
        self.wakes = 0
        self.failures = []

    def on_start(self):
        self.started = True

    def on_message(self, msg):
        self.messages.append(msg)

    def on_wake(self):
        self.wakes += 1

    def on_send_failed(self, msg, failed):
        self.failures.append((msg, failed))


@pytest.fixture
def sim():
    return Simulation(Topology.grid(2), seed=1)


@pytest.fixture
def apps(sim):
    installed = {}

    def factory(node):
        app = _RecorderApp()
        installed[node.node_id] = app
        return app

    sim.install(factory)
    return installed


class TestLifecycle:
    def test_start_invokes_apps_once(self, sim, apps):
        sim.start()
        sim.start()  # idempotent
        assert all(app.started for app in apps.values())

    def test_broadcast_reaches_neighbors(self, sim, apps):
        sim.start()
        sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "hello", 4)
        sim.run_for(1000.0)
        # 2x2 grid: everyone is in range of everyone
        for node_id, app in apps.items():
            if node_id != 0:
                assert [m.payload for m in app.messages] == ["hello"]

    def test_unicast_iterable_normalised(self, sim, apps):
        sim.start()
        msg = sim.nodes[0].send(MessageKind.RESULT, [3], "x", 4)
        assert msg.is_unicast and msg.link_dst == 3

    def test_multiple_destinations_become_multicast(self, sim, apps):
        sim.start()
        msg = sim.nodes[0].send(MessageKind.RESULT, [1, 2], "x", 4)
        assert msg.is_multicast

    def test_level_property(self, sim):
        assert sim.nodes[0].level == 0
        assert sim.nodes[3].level == 1

    def test_app_is_called_for_what_it_overhears_or_is_addressed(self, sim):
        class _FloodsOnly(_RecorderApp):
            def overhears(self, kind, src):
                return kind is MessageKind.QUERY

        apps = {n: _FloodsOnly() for n in sim.topology.node_ids}
        for node_id, app in apps.items():
            sim.install_at(node_id, app)
        sim.start()
        sim.nodes[0].broadcast(MessageKind.QUERY, "flood", 4)
        sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "beacon", 4)
        sim.nodes[0].send(MessageKind.RESULT, 2, "row", 4)
        sim.run_for(1000.0)
        assert [m.payload for m in apps[1].messages] == ["flood"]
        assert [m.payload for m in apps[2].messages] == ["flood", "row"]


class TestTimers:
    def test_after_runs_at_right_time(self, sim, apps):
        sim.start()
        fired = []
        sim.nodes[1].after(25.0, lambda: fired.append(sim.now))
        sim.run_for(100.0)
        assert fired == [25.0]

    def test_every_repeats(self, sim, apps):
        sim.start()
        fired = []
        sim.nodes[1].every(10.0, lambda: fired.append(sim.now), start=10.0)
        sim.run_for(35.0)
        assert fired == [10.0, 20.0, 30.0]


class TestSleep:
    def test_sleeping_node_misses_frames(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(500.0)
        sim.nodes[0].broadcast(MessageKind.MAINTENANCE, "lost", 4)
        sim.run_for(200.0)
        assert apps[1].messages == []

    def test_channel_sees_every_power_transition(self, sim, apps):
        """The channel is told, not asked: its off-set is the nodes' own."""
        def off():
            return {n for n, bit in sim.channel._bit.items()
                    if sim.channel._off_bits & bit}

        sim.start()
        assert off() == set()
        sim.nodes[1].sleep(100.0)
        sim.nodes[2].fail(300.0)
        sim.nodes[3].sleep(1000.0)
        assert off() == {1, 2, 3}
        sim.run_for(150.0)              # 1's sleep ran out
        assert off() == {2, 3}
        sim.nodes[3].wake()
        assert off() == {2}
        sim.nodes[2].wake()             # a failed node cannot be woken
        assert off() == {2}
        sim.run_for(200.0)              # 2 recovered
        assert off() == set()
        assert not any(node.asleep for node in sim.nodes.values())

    def test_wake_callback_after_duration(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(100.0)
        sim.run_for(99.0)
        assert apps[1].wakes == 0
        sim.run_for(2.0)
        assert apps[1].wakes == 1
        assert not sim.nodes[1].asleep

    def test_explicit_wake_cancels_pending(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(1000.0)
        sim.run_for(10.0)
        sim.nodes[1].wake()
        assert apps[1].wakes == 1
        sim.run_for(2000.0)
        assert apps[1].wakes == 1  # the original wake event was cancelled

    def test_sleep_extension(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(100.0)
        sim.run_for(50.0)
        sim.nodes[1].sleep(200.0)  # extend past the first deadline
        sim.run_for(100.0)  # t=150: original deadline passed
        assert sim.nodes[1].asleep
        sim.run_for(110.0)  # t=260: extended deadline passed
        assert not sim.nodes[1].asleep

    def test_shorter_sleep_does_not_shorten(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(300.0)
        sim.nodes[1].sleep(50.0)  # ignored: earlier than current deadline
        sim.run_for(100.0)
        assert sim.nodes[1].asleep

    def test_queued_frames_sent_after_wake(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(100.0)
        sim.nodes[1].send(MessageKind.RESULT, 0, "queued", 4)
        sim.run_for(50.0)
        assert apps[0].messages == []
        sim.run_for(200.0)
        assert [m.payload for m in apps[0].messages] == ["queued"]

    def test_sleep_time_recorded(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(123.0)
        assert sim.trace.node_stats(1).sleep_ms == 123.0


class TestSendFailureHook:
    def test_app_notified_on_drop(self, sim, apps):
        sim.start()
        sim.nodes[1].sleep(10_000.0)
        sim.nodes[0].send(MessageKind.RESULT, 1, "x", 4)
        sim.run_for(5000.0)
        assert apps[0].failures
        msg, failed = apps[0].failures[0]
        assert failed == {1}
