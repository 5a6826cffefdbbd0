"""A durable service costs what is live.

Terminal tickets retire out of the ledger into a bounded ring of
tombstones, so a snapshot holds the PENDING/LIVE tickets plus at most
:data:`RETIRED_RING_SIZE` compact rows, whatever the service's history;
and :class:`SnapshotStore` encodes it in one C-encoder pass, byte for
byte what the streaming ``json.dump`` wrote.
"""

import io
import json
import math
from collections import deque

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries.parser import parse_query
from repro.service import (
    RETIRED_RING_SIZE,
    DurabilityConfig,
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    RetiredTicket,
    SnapshotStore,
    TicketStatus,
)
from repro.tinydb.results import ResultLog

from .test_journal_points import CLUSTER_SCRIPT, _cluster_apply, _new_cluster

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"
Q_MAX = "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"

#: Distinct questions of the churn; twice as many tickets stay live.
KEYS = 25
QUESTIONS = [parse_query(f"SELECT light FROM sensors WHERE light > "
                         f"{300 + 10 * i} EPOCH DURATION 4096")
             for i in range(KEYS)]


def _backend():
    return OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3)))


class _LogBackend(OptimizerBackend):
    """A bare optimizer with a result log, so tickets can be subscribed."""

    def __init__(self, optimizer):
        super().__init__(optimizer)
        self.results = ResultLog()


def _answer(service, ticket_id):
    """What ``ticket(id)`` says, or the ``KeyError`` it raises."""
    try:
        ticket = service.ticket(ticket_id)
    except KeyError as exc:
        return ("KeyError", str(exc))
    return (ticket.status, ticket.error, ticket.cache_hit,
            ticket.terminated)


# ----------------------------------------------------------------------
# History flatness
# ----------------------------------------------------------------------
def test_a_snapshot_does_not_grow_with_history():
    """Submit/terminate churn with 50 tickets live: the snapshot at 2x
    and 3x the ring's bound in retirements is the same size.

    Every question keeps two live holders, so no anchor dies and the
    optimizer's table never changes: its own never-pruned re-optimization
    history is a separate term, not the service ledger measured here.
    """
    with scoped():
        service = QueryService(_backend(), batch_window_ms=0.0,
                               default_ttl_ms=1e12)
        sid = service.open_session("alice", now_ms=0.0)
        live = deque(service.submit(sid, QUESTIONS[i % KEYS],
                                    now_ms=0.0).ticket_id
                     for i in range(2 * KEYS))
        sizes = {}
        for cycle in range(1, 3 * RETIRED_RING_SIZE + 1):
            now = float(cycle)
            live.append(service.submit(sid, QUESTIONS[cycle % KEYS],
                                       now_ms=now).ticket_id)
            service.terminate(sid, live.popleft(), now_ms=now)
            if cycle in (2 * RETIRED_RING_SIZE, 3 * RETIRED_RING_SIZE):
                state = service._snapshot_state(now)
                assert len(state["tickets"]) == len(live) == 2 * KEYS
                assert [t["ticket_id"] for t in state["tickets"]] == \
                    sorted(live)
                assert len(state["retired"]) == RETIRED_RING_SIZE
                sizes[cycle] = len(json.dumps(state))
        service.validate()
    small, large = sizes.values()
    assert abs(large - small) <= 0.01 * small, sizes


# ----------------------------------------------------------------------
# One C-encoder pass, the same bytes
# ----------------------------------------------------------------------
def _streamed(state):
    """The bytes ``SnapshotStore.save`` wrote before: ``json.dump``
    streaming through the pure-Python encoder."""
    out = io.StringIO()
    json.dump(state, out, sort_keys=True)
    return out.getvalue()


def _assert_saved_as_streamed(tmp_path, state):
    path = tmp_path / "snapshot.json"
    SnapshotStore.save(path, state, fsync_dir=False)
    assert path.read_bytes() == _streamed(state).encode("utf-8")
    assert SnapshotStore.load(path) == json.loads(_streamed(state))


def test_a_service_snapshot_is_saved_as_streamed(tmp_path):
    with scoped():
        service = QueryService(
            _backend(), batch_window_ms=5.0,
            overload=OverloadConfig(shed_backlog_best_effort=2))
        alice = service.open_session("álïce-客户", now_ms=0.0)
        bob = service.open_session("bob", ttl_ms=10.0, now_ms=0.0)
        first = service.submit(alice, Q_LIGHT, now_ms=1.0)
        service.submit(bob, Q_TEMP, now_ms=2.0)
        service.submit(alice, Q_MAX, now_ms=3.0)  # shed
        service.flush(now_ms=4.0)
        service.terminate(alice, first.ticket_id, now_ms=5.0)
        service.submit(alice, Q_TEMP, now_ms=30.0)  # pending; bob expired
        state = service._snapshot_state(31.0)
    assert {row[2] for row in state["held"]} == {"shed"}
    assert {row[2] for row in state["retired"]} == {"terminated", "expired"}
    assert state["tickets"] and state["batcher"]["pending"]
    _assert_saved_as_streamed(tmp_path, state)


def test_a_root_snapshot_is_saved_as_streamed(tmp_path):
    with scoped():
        coordinator = _new_cluster(tmp_path / "cluster")
        apply = _cluster_apply(coordinator)
        for index, op in enumerate(CLUSTER_SCRIPT):
            apply(op, index)
        root = coordinator._root_snapshot_state(1.0)
        shards = [service._snapshot_state(1.0)
                  for service in coordinator.shard_services()]
        coordinator.shutdown()
    assert root["tickets"] and root["anchors"]
    _assert_saved_as_streamed(tmp_path, root)
    for shard in shards:
        _assert_saved_as_streamed(tmp_path, shard)


def test_edge_values_are_saved_as_streamed(tmp_path):
    state = {
        "inf": math.inf, "-inf": -math.inf, "floats": [0.1, 1e-300, 2.5e17],
        "client": "ünïcødé クライアント  ", "emoji": "\U0001f4e1",
        "empties": {"list": [], "dict": {}, "nested": [[], {}, [{}]],
                    "string": ""},
        "mixed": [None, True, False, 0, -1, 2 ** 70],
        "z": {"b": 1, "a": {"d": [], "c": {}}},
    }
    _assert_saved_as_streamed(tmp_path, state)


# ----------------------------------------------------------------------
# The ticket() contract across retirement, recovery and eviction
# ----------------------------------------------------------------------
def test_ring_ids_answer_alike_live_and_recovered(tmp_path):
    """More retirements than the ring holds, some before the last
    snapshot and some replayed after it: the recovered service answers
    every id as the live one does, tombstone or ``KeyError``."""
    churned = RETIRED_RING_SIZE + 100
    with scoped():
        directory = str(tmp_path / "service")
        service = QueryService(
            _backend(), batch_window_ms=0.0,
            durability=DurabilityConfig(directory=directory,
                                        snapshot_every_ops=64))
        keep = service.open_session("keep", now_ms=0.0)
        churn = service.open_session("churn", now_ms=0.0)
        service.submit(keep, Q_LIGHT, now_ms=0.0)
        for i in range(churned):
            ticket = service.submit(churn, Q_LIGHT if i % 2 else Q_TEMP,
                                    now_ms=1.0 + i)
            service.terminate(churn, ticket.ticket_id, now_ms=1.0 + i)
        for i in range(3):
            service.submit(churn, Q_TEMP, now_ms=1000.0 + i)
        service.close_session(churn, now_ms=1100.0)
        last = service.submit(keep, Q_TEMP, now_ms=1101.0)
        service.terminate(keep, last.ticket_id, now_ms=1102.0)
        ids = range(1, last.ticket_id + 2)  # one never issued
        answers = {tid: _answer(service, tid) for tid in ids}
        service.simulate_crash()
    evicted = [tid for tid, a in answers.items() if a[0] == "KeyError"]
    # The oldest retirements, then the id never issued.
    retired = churned + 3 + 1
    assert evicted == [*range(2, 2 + retired - RETIRED_RING_SIZE),
                       last.ticket_id + 1]
    assert answers[2] == ("KeyError", "'unknown ticket 2'")
    assert answers[last.ticket_id][:2] == (TicketStatus.TERMINATED, None)
    with scoped():
        recovered = QueryService.recover(_backend(), directory)
        report = recovered.last_recovery
        assert report.snapshot_loaded and report.replayed_ops > 0
        recovered.validate()
        assert {tid: _answer(recovered, tid) for tid in ids} == answers
        recovered.shutdown()


def test_a_retired_ticket_keeps_todays_terminate_and_subscribe():
    with scoped():
        service = QueryService(
            _LogBackend(BaseStationOptimizer(default_cost_model(16, 3))),
            batch_window_ms=5.0,
            overload=OverloadConfig(shed_backlog_best_effort=1))
        sid = service.open_session("alice", now_ms=0.0)
        done = service.submit(sid, Q_LIGHT, now_ms=1.0)
        shed = service.submit(sid, Q_TEMP, now_ms=2.0)
        service.flush(now_ms=3.0)
        service.terminate(sid, done.ticket_id, now_ms=4.0)
        assert isinstance(service.ticket(done.ticket_id), RetiredTicket)
        assert service.ticket(shed.ticket_id).status is TicketStatus.SHED
        # Terminated: the session no longer owns it.
        with pytest.raises(KeyError, match="owns no ticket"):
            service.terminate(sid, done.ticket_id, now_ms=5.0)
        with pytest.raises(KeyError, match="owns no ticket"):
            service.subscribe(sid, done.ticket_id)
        # Shed: still owned, so subscribing yields a queue nothing
        # reaches and no cursor is kept; terminating it is a no-op
        # that lets go of it.
        queue = service.subscribe(sid, shed.ticket_id)
        service.pump(now_ms=6.0)
        assert queue.empty()
        service.validate()
        service.terminate(sid, shed.ticket_id, now_ms=7.0)
        with pytest.raises(KeyError, match="owns no ticket"):
            service.terminate(sid, shed.ticket_id, now_ms=8.0)
        assert service.ticket(shed.ticket_id).status is TicketStatus.SHED
        service.validate()


def test_a_ticket_its_session_lists_is_never_evicted():
    """A shed or failed ticket stays listed by its session until the
    client lets go of it, so ``ticket(id)`` keeps answering however many
    tickets retire meanwhile; once let go, it ages out of the ring.  (A
    cluster coordinator reads its shard subqueries this way.)"""
    with scoped():
        service = QueryService(
            _backend(), batch_window_ms=5.0,
            overload=OverloadConfig(shed_backlog_best_effort=1))
        owner = service.open_session("owner", now_ms=0.0)
        churn = service.open_session("churn", now_ms=0.0)
        service.submit(owner, Q_LIGHT, now_ms=1.0)
        shed = service.submit(owner, Q_TEMP, now_ms=2.0)
        service.flush(now_ms=3.0)
        for i in range(RETIRED_RING_SIZE + 1):
            ticket = service.submit(churn, Q_LIGHT, now_ms=4.0 + i)
            service.flush(now_ms=4.0 + i)
            service.terminate(churn, ticket.ticket_id, now_ms=4.0 + i)
        assert service.ticket(shed.ticket_id).status is TicketStatus.SHED
        service.validate()
        service.terminate(owner, shed.ticket_id, now_ms=5000.0)
        for i in range(RETIRED_RING_SIZE):
            ticket = service.submit(churn, Q_LIGHT, now_ms=5001.0 + i)
            service.flush(now_ms=5001.0 + i)
            service.terminate(churn, ticket.ticket_id, now_ms=5001.0 + i)
        with pytest.raises(KeyError, match="unknown ticket"):
            service.ticket(shed.ticket_id)
        service.validate()
