"""Crash at every journal point: the durability protocol, enumerated.

Every durable write a :class:`~repro.service.durability.Journal` makes is
one of three primitives: ``WriteAheadLog.append`` (a record), and
``SnapshotStore.save`` then ``WriteAheadLog.rotate`` (the two halves of a
checkpoint).  Each test runs a fixed script once without crashing, keeping
the state after every op, and counts those writes.  It then reruns the
script once per write N, killing the process right after write N lands:
the write is on disk and nothing after it happens.  The directory is then
recovered twice, and:

* every op acknowledged before the kill is present, and the op in flight
  is fully there or fully absent — the recovered state equals the
  uncrashed script's state just before or just after that op (for a
  cluster op that first sweeps lapsed leases, also just after that
  sweep: the root journals it as an ``expire`` record of its own);
* ``validate()`` passes; for the cluster ``orphan_anchors() == []`` too,
  no shard still runs a ticket no live cluster ticket claims, and every
  session on every shard is one the root holds;
* the second recovery lands on exactly the first one's state;
* after each recovery the ``service.*`` counter series read exactly the
  recovered state's ``counters``: the crashed instance exports nothing.

The tier-1 tests run short scripts; the ``slow`` variants run longer
seeded ones.
"""

import random

import pytest

from repro.cluster import ClusterCoordinator, FieldPartition
from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.service import (
    DurabilityConfig,
    OptimizerBackend,
    QueryService,
    RetiredTicket,
    SessionError,
    TicketStatus,
)
from repro.service import durability

POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "select LIGHT from sensors where 300 < light SAMPLE PERIOD 4096",
    "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    # With side 8 and two shards, nodes 1..31 are shard 0's band.
    "SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 31 "
    "EPOCH DURATION 4096",
    "SELECT light FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
    "EPOCH DURATION 4096",
)


class _Killed(Exception):
    """The simulated kill, raised right after a durable write."""


class _KillSwitch:
    """Counts durable writes while armed; kills after write ``kill_at``."""

    def __init__(self, monkeypatch):
        self.armed = False
        self.writes = 0
        self.kill_at = 0
        for owner, name in ((durability.WriteAheadLog, "append"),
                            (durability.WriteAheadLog, "rotate"),
                            (durability.SnapshotStore, "save")):
            wrapped = self._after(getattr(owner, name))
            if name == "save":
                wrapped = staticmethod(wrapped)
            monkeypatch.setattr(owner, name, wrapped)

    def _after(self, write):
        def wrapper(*args, **kwargs):
            result = write(*args, **kwargs)
            if self.armed:
                self.writes += 1
                if self.writes == self.kill_at:
                    self.armed = False
                    raise _Killed(self.writes)
            return result
        return wrapper

    def run(self, script, apply, kill_at=0):
        """Apply ``script``; the index of the op the kill hit, or None."""
        self.writes, self.kill_at, self.armed = 0, kill_at, True
        try:
            for index, op in enumerate(script):
                try:
                    apply(op, index)
                except _Killed:
                    return index
            return None
        finally:
            self.armed = False


@pytest.fixture
def kill_switch(monkeypatch):
    return _KillSwitch(monkeypatch)


def _backend():
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------
SERVICE_SCRIPT = (
    ("open", 0), ("open", 1), ("submit", 0, 0), ("submit", 1, 1),
    ("submit", 0, 2), ("submit", 1, 3), ("renew", 0), ("terminate", 0, 1),
    ("open", 2), ("submit", 2, 4), ("tick",), ("submit", 2, 2),
    ("terminate", 1, 4), ("flush",), ("submit", 0, 3), ("close", 1),
    ("submit", 2, 0), ("terminate", 2, 5), ("expire",), ("submit", 0, 1),
)


def _service_script(n_ops, seed):
    rng = random.Random(seed)
    script = [("open", 0), ("open", 1)]
    while len(script) < n_ops:
        kind = rng.choice(("open", "submit", "submit", "submit", "renew",
                           "terminate", "terminate", "close", "tick",
                           "flush", "expire"))
        if kind == "open":
            script.append(("open", rng.randrange(6)))
        elif kind == "submit":
            script.append(("submit", rng.randrange(8),
                           rng.randrange(len(POOL))))
        elif kind == "terminate":
            script.append(("terminate", rng.randrange(8),
                           rng.randrange(1, len(script) + 1)))
        elif kind in ("renew", "close"):
            script.append((kind, rng.randrange(8)))
        else:
            script.append((kind,))
    return tuple(script)


def _service_apply(service):
    sessions = []

    def apply(op, index):
        now = 10.0 * (index + 1)
        kind = op[0]
        try:
            if kind == "open":
                sessions.append(service.open_session(
                    f"client-{op[1]}", ttl_ms=400.0, now_ms=now))
            elif kind in ("tick", "flush"):
                getattr(service, kind)(now_ms=now)
            elif kind == "expire":
                service.expire_leases(now_ms=now)
            elif sessions:
                sid = sessions[op[1] % len(sessions)]
                if kind == "submit":
                    service.submit(sid, POOL[op[2]], now_ms=now)
                elif kind == "terminate":
                    service.terminate(sid, op[2], now_ms=now)
                elif kind == "renew":
                    service.renew_session(sid, ttl_ms=400.0, now_ms=now)
                else:
                    service.close_session(sid, now_ms=now)
        except (SessionError, KeyError):
            pass  # raised identically by the uncrashed run and by replay
    return apply


#: The ``service.*`` series behind each snapshot counter.
COUNTER_SERIES = {
    "submissions": "service.submissions_total",
    "admitted": "service.admitted_total",
    "registrations": "service.registrations_total",
    "injected": "service.registrations_injected_total",
    "absorbed": "service.registrations_absorbed_total",
    "terminations": "service.terminations_total",
    "delivered": "service.results_delivered_total",
}


def _assert_series_are_counters(registry, service, instance="default"):
    values = {entry["name"]: entry["value"] for entry in registry.snapshot()
              if entry["labels"] == {"instance": instance}}
    assert {key: values[name] for key, name in COUNTER_SERIES.items()} == \
        service._snapshot_state(0.0)["counters"], instance


def _service_state(service):
    state = service._snapshot_state(0.0)
    state.pop("saved_ms")
    return state


def _service_reference(tmp_path, script, kill_switch):
    """States after 0..len(script) ops, and the durable writes made."""
    with scoped():
        service = _new_service(tmp_path / "reference")
        states = [_service_state(service)]
        apply = _service_apply(service)

        def apply_and_keep(op, index):
            apply(op, index)
            states.append(_service_state(service))

        assert kill_switch.run(script, apply_and_keep) is None
        service.shutdown()
    return states, kill_switch.writes


def _new_service(directory):
    return QueryService(
        _backend(), batch_window_ms=0.0,
        durability=DurabilityConfig(directory=str(directory),
                                    snapshot_every_ops=4))


def _check_service_crash_points(tmp_path, script, kill_switch):
    states, writes = _service_reference(tmp_path, script, kill_switch)
    assert writes > len(script)  # the checkpoints' saves and rotates too
    for kill_at in range(1, writes + 1):
        directory = tmp_path / f"kill-{kill_at}"
        with scoped() as registry:
            service = _new_service(directory)
            in_flight = kill_switch.run(script, _service_apply(service),
                                        kill_at)
            assert in_flight is not None
            service.simulate_crash()
            first = QueryService.recover(_backend(), str(directory))
            first.validate()
            _assert_series_are_counters(registry, first)
            state = _service_state(first)
            assert state in (states[in_flight], states[in_flight + 1]), (
                f"write {kill_at} (op {in_flight}: {script[in_flight]}): "
                f"recovered a state the script never passed through")
            first.simulate_crash()
            second = QueryService.recover(_backend(), str(directory))
            second.validate()
            _assert_series_are_counters(registry, second)
            assert _service_state(second) == state, f"write {kill_at}"
            second.shutdown()


class TestServiceJournalPoints:
    def test_every_journal_point_of_a_short_script(self, tmp_path,
                                                   kill_switch):
        _check_service_crash_points(tmp_path, SERVICE_SCRIPT, kill_switch)

    def test_the_short_script_is_not_vacuous(self, tmp_path, kill_switch):
        """Its tickets go LIVE and get released (into the retired ring)."""
        states, _ = _service_reference(tmp_path, SERVICE_SCRIPT,
                                       kill_switch)
        final = states[-1]
        tickets = final["tickets"] + [
            {"status": RetiredTicket.from_row(row).status.value}
            for row in final["retired"]]
        statuses = {t["status"] for t in tickets}
        assert TicketStatus.LIVE.value in statuses
        assert TicketStatus.TERMINATED.value in statuses
        assert len(tickets) >= 8

    @pytest.mark.slow
    def test_every_journal_point_of_a_long_script(self, tmp_path,
                                                  kill_switch):
        _check_service_crash_points(tmp_path, _service_script(60, seed=2),
                                    kill_switch)


# ----------------------------------------------------------------------
# ClusterCoordinator (two shards, root journal)
# ----------------------------------------------------------------------
CLUSTER_SCRIPT = (
    ("open", 0), ("open", 1), ("submit", 0, 0), ("submit", 1, 1),
    ("submit", 0, 5), ("submit", 1, 6), ("submit", 0, 4),
    ("snapshot_shard", 0), ("terminate", 0, 0), ("submit", 1, 2),
    ("snapshot_root",), ("terminate", 1, 1), ("abort_orphans",),
    ("open", 2), ("submit", 2, 0), ("close", 0), ("tick",),
)


#: Each root record kind a fresh coordinator writes: tenant 1's lease
#: (55 ms from t=20) lapses at t=75, after its ticket's terminate and
#: before the tick at t=80.
CLUSTER_KINDS_SCRIPT = (
    ("open", 0), ("open", 1, 55.0), ("open", 2), ("submit", 1, 5),
    ("submit", 0, 0), ("renew", 0), ("terminate", 1, 0), ("tick",),
    ("close", 2), ("shutdown",),
)


def _cluster_script(n_ops, seed):
    rng = random.Random(seed)
    script = [("open", 0), ("open", 1)]
    while len(script) < n_ops - 1:
        kind = rng.choice(("open", "open_short", "submit", "submit",
                           "submit", "renew", "terminate", "terminate",
                           "close", "tick", "abort_orphans", "snapshot_root",
                           "snapshot_shard"))
        if kind == "open":
            script.append(("open", rng.randrange(5)))
        elif kind == "open_short":
            script.append(("open", rng.randrange(5),
                           rng.choice((30.0, 60.0))))
        elif kind == "submit":
            script.append(("submit", rng.randrange(6),
                           rng.randrange(len(POOL))))
        elif kind == "terminate":
            script.append(("terminate", rng.randrange(6),
                           rng.randrange(len(script))))
        elif kind in ("renew", "close"):
            script.append((kind, rng.randrange(6)))
        elif kind == "snapshot_shard":
            script.append(("snapshot_shard", rng.randrange(2)))
        else:
            script.append((kind,))
    script.append(("shutdown",))
    return tuple(script)


#: Read-only to the coordinator, so every cluster here shares one.
PARTITION = FieldPartition(8, 2)


def _backends():
    return [_backend() for _ in range(2)]


def _new_cluster(directory):
    return ClusterCoordinator(_backends(), partition=PARTITION,
                              durability_dir=directory)


#: Cluster ops that first sweep lapsed leases.  The root journals the
#: sweep as an ``expire`` record of its own, before the op's records.
SWEEPING_OPS = ("open", "renew", "submit", "terminate", "tick")


def _cluster_apply(coordinator, swept=None):
    """The script's driver; ``swept`` receives op index -> the view after
    the lease sweep a sweeping op runs first, here as a step of its own
    (the op's own sweep then finds nothing: same records, same order)."""
    sessions, tickets = [], []

    def apply(op, index):
        now = 10.0 * (index + 1)
        kind = op[0]
        if kind in SWEEPING_OPS:
            coordinator.expire_leases(now_ms=now)
            if swept is not None:
                swept[index] = _cluster_view(coordinator)
        try:
            if kind == "open":  # ("open", tenant[, ttl_ms])
                sessions.append(coordinator.open_session(
                    f"tenant-{op[1]}", ttl_ms=op[2] if len(op) > 2 else None,
                    now_ms=now))
            elif kind in ("tick", "shutdown"):
                getattr(coordinator, kind)(now_ms=now)
            elif kind == "abort_orphans":
                coordinator.abort_orphans(now_ms=now)
            elif kind == "snapshot_root":
                coordinator.snapshot(now_ms=now)
            elif kind == "snapshot_shard":
                coordinator.shard_services()[op[1]].snapshot(now_ms=now)
            elif sessions:
                sid = sessions[op[1] % len(sessions)]
                if kind == "submit":
                    tickets.append((sid, coordinator.submit(
                        sid, POOL[op[2]], now_ms=now).ticket_id))
                elif kind == "terminate" and tickets:
                    owner, ticket_id = tickets[op[2] % len(tickets)]
                    coordinator.terminate(owner, ticket_id, now_ms=now)
                elif kind == "renew":
                    coordinator.renew_session(sid, now_ms=now)
                elif kind == "close":
                    coordinator.close_session(sid, now_ms=now)
        except (SessionError, KeyError):
            pass  # raised identically by the uncrashed run
    return apply


def _cluster_view(coordinator):
    """What tenants can observe: sessions, tickets, anchors, refcounts.

    The shard sessions the root opens on first use are helpers, not
    acknowledged state, and a terminated ticket's shard handles are
    dropped on recovery, so both are left out of the comparison.
    """
    state = coordinator._root_snapshot_state(0.0)
    for key in ("saved_ms", "op_seq", "shard_sessions", "root_sessions"):
        state.pop(key)
    for ticket in state["tickets"]:
        if ticket["terminated"]:
            ticket.pop("subtickets")
    return state


def _cluster_full_state(coordinator):
    """The root's whole state plus each shard's whole state."""
    shards = []
    for service in coordinator.shard_services():
        shard = service._snapshot_state(0.0)
        shard.pop("saved_ms")
        shards.append(shard)
    root = coordinator._root_snapshot_state(0.0)
    root.pop("saved_ms")
    return root, shards


def _unclaimed_shard_tickets(coordinator):
    """Live shard tickets that no live cluster ticket is served by."""
    claimed = set()
    for ticket in coordinator._tickets.values():
        if ticket.terminated:
            continue
        if ticket.fan_key is None:
            claimed.update((ticket.targets[0], h.ticket_id)
                           for h in ticket.shard_tickets)
        else:
            subtickets = coordinator._anchors[ticket.fan_key].subtickets
            claimed.update((shard_id, sub.ticket_id)
                           for shard_id, sub in subtickets.items())
    return [(shard_id, t.ticket_id)
            for shard_id, service in enumerate(coordinator.shard_services())
            for t in service.live_tickets()
            if (shard_id, t.ticket_id) not in claimed]


def _unclaimed_shard_sessions(coordinator):
    """Shard sessions that are neither a tenant's nor the root's own."""
    claimed = set(coordinator._root_sessions.items())
    for per_shard in coordinator._shard_sessions.values():
        claimed.update(per_shard.items())
    return [(shard_id, entry["session_id"])
            for shard_id, service in enumerate(coordinator.shard_services())
            for entry in service._snapshot_state(0.0)["sessions"]["sessions"]
            if (shard_id, entry["session_id"]) not in claimed]


def _recover_cluster(directory, registry):
    coordinator = ClusterCoordinator.recover(
        _backends(), directory, partition=PARTITION)
    coordinator.validate()
    assert coordinator.orphan_anchors() == []
    assert _unclaimed_shard_tickets(coordinator) == []
    assert _unclaimed_shard_sessions(coordinator) == []
    for service in coordinator.shard_services():
        _assert_series_are_counters(registry, service, service.name)
    return coordinator


def _crash_cluster(coordinator):
    for service in coordinator.shard_services():
        service.simulate_crash()
    coordinator.simulate_crash()


def _check_cluster_crash_points(tmp_path, script, kill_switch):
    with scoped():
        coordinator = _new_cluster(tmp_path / "reference")
        views, swept = [_cluster_view(coordinator)], {}
        apply = _cluster_apply(coordinator, swept)

        def apply_and_keep(op, index):
            apply(op, index)
            views.append(_cluster_view(coordinator))

        assert kill_switch.run(script, apply_and_keep) is None
        writes = kill_switch.writes
        _crash_cluster(coordinator)
    assert writes > len(script)
    for kill_at in range(1, writes + 1):
        directory = tmp_path / f"kill-{kill_at}"
        with scoped() as registry:
            coordinator = _new_cluster(directory)
            in_flight = kill_switch.run(
                script, _cluster_apply(coordinator), kill_at)
            assert in_flight is not None
            _crash_cluster(coordinator)
            first = _recover_cluster(directory, registry)
            view = _cluster_view(first)
            passed = [views[in_flight], views[in_flight + 1]]
            if in_flight in swept:
                passed.append(swept[in_flight])
            assert view in passed, (
                f"write {kill_at} (op {in_flight}: {script[in_flight]}): "
                f"recovered a state the script never passed through")
            full = _cluster_full_state(first)
            _crash_cluster(first)
            second = _recover_cluster(directory, registry)
            assert _cluster_full_state(second) == full, f"write {kill_at}"
            _crash_cluster(second)


class TestClusterJournalPoints:
    def test_every_journal_point_of_a_short_script(self, tmp_path,
                                                   kill_switch):
        _check_cluster_crash_points(tmp_path, CLUSTER_SCRIPT, kill_switch)

    def test_every_journal_point_of_the_record_kinds_script(self, tmp_path,
                                                            kill_switch):
        _check_cluster_crash_points(tmp_path, CLUSTER_KINDS_SCRIPT,
                                    kill_switch)

    @pytest.mark.slow
    def test_every_journal_point_of_a_long_script(self, tmp_path,
                                                  kill_switch):
        _check_cluster_crash_points(tmp_path, _cluster_script(30, seed=7),
                                    kill_switch)
