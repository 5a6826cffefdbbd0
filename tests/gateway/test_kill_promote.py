"""SIGKILL the replicated primary mid-load; the standby loses nothing.

The primary runs in a real child process (``python -m tests.chaos.driver
gateway``):
durable service, semi-sync replicator, gateway socket.  The parent
drives submissions over TCP, records exactly which ones the gateway
*acknowledged*, kills the child with SIGKILL (no atexit, no flush), and
promotes its own in-process standby.  The acceptance bar is the issue's:
**zero acknowledged admissions lost**, with the promoted state verified
against an identically-seeded no-crash twin.
"""

import signal
import subprocess
import time

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.gateway import GatewayClient, ProtocolError
from repro.harness.tier1_sim import default_cost_model
from repro.service import OptimizerBackend, QueryService, StandbyServer
from repro.service.load import _QUERY_POOL
from tests.chaos.driver import spawn


def make_backend():
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))


def spawn_primary(state_dir, standby_port):
    child = spawn("gateway", str(state_dir), str(standby_port),
                  stdout=subprocess.PIPE)
    deadline = time.monotonic() + 60.0
    line = ""
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        if line.startswith("PORT "):
            return child, int(line.split()[1])
        if child.poll() is not None:
            break
    child.kill()
    raise RuntimeError(f"primary child failed to start (last line {line!r})")


@pytest.mark.slow
def test_sigkill_primary_loses_no_acknowledged_submission(tmp_path):
    standby = StandbyServer(tmp_path / "standby")
    child, port = spawn_primary(tmp_path / "primary", standby.address[1])
    acked = []  # (ticket_id, query_text, status, cache_hit)
    n_before_kill = 10
    try:
        with GatewayClient("127.0.0.1", port, timeout_s=60.0) as client:
            session = client.open("chaos-parent")
            for step in range(n_before_kill + 20):
                if step == n_before_kill:
                    child.send_signal(signal.SIGKILL)
                text = _QUERY_POOL[step % 4]
                try:
                    reply = client.submit(session, text)
                except (ProtocolError, ConnectionError, OSError):
                    break  # the kill landed; nothing further is acked
                # Semi-sync: ok=true means the standby holds this record.
                assert reply.get("replicated") is True
                acked.append((reply["ticket"], text, reply["status"],
                              reply["cache_hit"]))
    finally:
        child.kill()
        child.wait(timeout=30)
    # The kill raced the submit loop: everything acked pre-kill is in,
    # and the post-kill submits all failed.
    assert len(acked) >= n_before_kill

    promoted = standby.promote(make_backend())
    try:
        report = promoted.last_recovery
        assert report is not None
        assert report.replay_errors == 0
        # THE acceptance bar: every acknowledged admission survived.
        live = {t.ticket_id for t in promoted.live_tickets()}
        for ticket_id, _text, status, _hit in acked:
            if status == "live":
                assert ticket_id in live, \
                    f"acked ticket {ticket_id} lost in promotion"
        promoted_tickets = {
            t.ticket_id: (t.status.value, t.cache_hit, t.anchor_qid)
            for t in promoted.live_tickets()}
    finally:
        promoted.shutdown()

    # No-crash twin: the same submission sequence, same seed material,
    # no kill.  The promoted service may hold a superset of `acked` (the
    # record of an in-flight unacked submit can reach the standby before
    # the reply reaches the client), so compare the common acked prefix.
    twin = QueryService(make_backend(), batch_window_ms=0.0)
    sid = twin.open_session("chaos-parent")
    twin_tickets = {}
    for step in range(len(acked)):
        ticket = twin.submit(sid, _QUERY_POOL[step % 4])
        twin_tickets[ticket.ticket_id] = (
            ticket.status.value, ticket.cache_hit, ticket.anchor_qid)
    for ticket_id, _text, status, cache_hit in acked:
        assert twin_tickets[ticket_id][0] == status
        assert twin_tickets[ticket_id][1] == cache_hit
        if status == "live":
            assert promoted_tickets[ticket_id] == twin_tickets[ticket_id], \
                f"ticket {ticket_id}: promoted state diverged from the " \
                f"no-crash twin"


@pytest.mark.slow
def test_kill_during_snapshot_rotation_window(tmp_path):
    """Many snapshots in flight when the kill lands; replay stays clean.

    The primary child snapshots every 16 ops, so driving ~3x that many ops
    makes it likely the SIGKILL lands near a save+rotate pair — the
    stale-WAL/new-snapshot window that replication must ship in order.
    """
    standby = StandbyServer(tmp_path / "standby")
    child, port = spawn_primary(tmp_path / "primary", standby.address[1])
    acked_live = []
    try:
        with GatewayClient("127.0.0.1", port, timeout_s=60.0) as client:
            session = client.open("rotation-parent")
            for step in range(48):
                if step == 40:
                    child.send_signal(signal.SIGKILL)
                try:
                    reply = client.submit(
                        session, _QUERY_POOL[step % len(_QUERY_POOL)])
                except (ProtocolError, ConnectionError, OSError):
                    break
                if reply["status"] == "live":
                    acked_live.append(reply["ticket"])
    finally:
        child.kill()
        child.wait(timeout=30)

    promoted = standby.promote(make_backend())
    try:
        assert promoted.last_recovery.replay_errors == 0
        live = {t.ticket_id for t in promoted.live_tickets()}
        assert set(acked_live) <= live
    finally:
        promoted.shutdown()
