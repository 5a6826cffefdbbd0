"""Warm-standby replication: shipping, acks, reconnects, promotion."""

import threading
import time

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.service import (
    RETIRED_RING_SIZE,
    DurabilityConfig,
    OptimizerBackend,
    PrimaryReplicator,
    QueryService,
    ReplicationConfig,
    StandbyServer,
    TicketStatus,
)
from repro.service.durability import WriteAheadLog

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"


def make_backend():
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))


def make_primary(tmp_path, **durability_kwargs):
    durability_kwargs.setdefault("snapshot_every_ops", 1000)
    return QueryService(
        make_backend(), batch_window_ms=0.0,
        durability=DurabilityConfig(directory=str(tmp_path / "primary"),
                                    **durability_kwargs))


def make_pair(tmp_path, sync=True, **config_kwargs):
    service = make_primary(tmp_path)
    standby = StandbyServer(tmp_path / "standby")
    host, port = standby.address
    replicator = PrimaryReplicator(ReplicationConfig(
        host=host, port=port, epoch_ms=5.0, sync=sync, **config_kwargs))
    service.attach_replicator(replicator)
    return service, replicator, standby


def stop_pair(replicator, standby):
    """Stop both ends; a thread that outlives stop() has leaked."""
    replicator.stop()
    standby.stop()
    assert not replicator._thread.is_alive()
    assert not standby._thread.is_alive()


def wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestShipping:
    def test_attach_ships_a_self_contained_snapshot(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        try:
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            assert standby.snapshot_path.exists()
        finally:
            stop_pair(replicator, standby)
            service.shutdown()

    def test_every_op_reaches_the_standby_wal(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        try:
            sid = service.open_session("alice")
            service.submit(sid, Q_LIGHT)
            service.submit(sid, Q_TEMP)
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            records, torn = WriteAheadLog.load(standby.wal_path)
            assert torn == 0
            ops = [record["op"] for record in records]
            assert ops == ["open", "submit", "submit"]
        finally:
            stop_pair(replicator, standby)
            service.shutdown()

    def test_snapshot_rotation_rotates_the_standby_wal(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        try:
            sid = service.open_session("alice")
            service.submit(sid, Q_LIGHT)
            service.snapshot()
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            records, _ = WriteAheadLog.load(standby.wal_path)
            assert records == []  # rotated away under the shipped snapshot
            assert standby.snapshot_path.exists()
        finally:
            stop_pair(replicator, standby)
            service.shutdown()

    def test_ack_listener_fires_with_monotonic_seqs(self, tmp_path):
        seen = []
        service, replicator, standby = make_pair(tmp_path)
        try:
            replicator.add_ack_listener(seen.append)
            sid = service.open_session("alice")
            for _ in range(5):
                service.submit(sid, Q_LIGHT)
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            assert wait_for(lambda: seen and seen[-1] >= replicator.last_seq)
            assert seen == sorted(seen)
        finally:
            stop_pair(replicator, standby)
            service.shutdown()

    def test_lag_metrics_converge_to_zero(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        try:
            sid = service.open_session("alice")
            for _ in range(10):
                service.submit(sid, Q_LIGHT)
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            assert replicator.acked_seq == replicator.last_seq
            assert standby.applied_seq == replicator.last_seq
        finally:
            stop_pair(replicator, standby)
            service.shutdown()


class TestReconnect:
    def test_primary_retries_until_standby_appears(self, tmp_path):
        import socket as socket_module
        service = make_primary(tmp_path)
        # Reserve a port, then release it for the late-starting standby.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        replicator = PrimaryReplicator(ReplicationConfig(
            host="127.0.0.1", port=port, epoch_ms=5.0,
            retry_backoff_s=0.05, connect_timeout_s=0.5))
        service.attach_replicator(replicator)
        sid = service.open_session("alice")
        service.submit(sid, Q_LIGHT)
        time.sleep(0.3)  # shipper is failing to connect and retrying
        standby = StandbyServer(tmp_path / "standby", port=port)
        try:
            assert replicator.wait_acked(replicator.last_seq, timeout=15.0)
            records, _ = WriteAheadLog.load(standby.wal_path)
            assert [r["op"] for r in records] == ["open", "submit"]
        finally:
            stop_pair(replicator, standby)
            service.shutdown()

    def test_dropped_connection_resends_without_double_apply(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        try:
            sid = service.open_session("alice")
            service.submit(sid, Q_LIGHT)
            assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
            # Sever the live connection out from under both ends.
            with standby._lock:
                conn = standby._conn
            assert conn is not None
            conn.shutdown(2)
            service.submit(sid, Q_TEMP)
            assert replicator.wait_acked(replicator.last_seq, timeout=15.0)
            records, torn = WriteAheadLog.load(standby.wal_path)
            assert torn == 0
            ops = [record["op"] for record in records]
            # Exactly one of each — the reconnect handshake's applied_seq
            # kept the resent suffix from double-applying.
            assert ops == ["open", "submit", "submit"]
        finally:
            stop_pair(replicator, standby)
            service.shutdown()


class TestPromotion:
    def test_promoted_service_matches_primary_dir_recovery(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        sid = service.open_session("alice")
        tickets = [service.submit(sid, Q_LIGHT),
                   service.submit(sid, Q_TEMP)]
        service.terminate(sid, tickets[1].ticket_id)
        assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
        replicator.kill()
        assert not replicator._thread.is_alive()
        service.simulate_crash()

        promoted = standby.promote(make_backend())
        try:
            assert promoted.last_recovery is not None
            assert promoted.last_recovery.replay_errors == 0
            live = {t.ticket_id for t in promoted.live_tickets()}
            assert live == {tickets[0].ticket_id}
            assert promoted.ticket(tickets[1].ticket_id).status \
                is TicketStatus.TERMINATED

            twin = QueryService.recover(make_backend(),
                                        str(tmp_path / "primary"))
            assert ({t.ticket_id: t.status for t in twin.live_tickets()}
                    == {t.ticket_id: t.status
                        for t in promoted.live_tickets()})
            twin.shutdown()
        finally:
            promoted.shutdown()

    def test_promoted_standby_answers_retired_tickets_as_the_primary(
            self, tmp_path):
        """The primary retires more tickets than the ring holds, across
        snapshot rotations: the promoted standby answers ``ticket(id)``
        for every ring id exactly as the primary did, and raises the same
        ``KeyError`` for the evicted ones."""

        def answer(service, ticket_id):
            try:
                ticket = service.ticket(ticket_id)
            except KeyError as exc:
                return ("KeyError", str(exc))
            return (ticket.status, ticket.error, ticket.cache_hit,
                    ticket.terminated)

        service, replicator, standby = make_pair(tmp_path)
        sid = service.open_session("alice")
        service.submit(sid, Q_LIGHT)  # keeps the anchor: cache hits after
        for i in range(RETIRED_RING_SIZE + 50):
            ticket = service.submit(sid, Q_LIGHT if i % 3 else Q_TEMP)
            service.terminate(sid, ticket.ticket_id)
        ids = range(1, ticket.ticket_id + 1)
        on_primary = {tid: answer(service, tid) for tid in ids}
        assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
        replicator.kill()
        assert not replicator._thread.is_alive()
        service.simulate_crash()

        ring = [tid for tid, a in on_primary.items()
                if a[0] is TicketStatus.TERMINATED]
        evicted = [tid for tid, a in on_primary.items() if a[0] == "KeyError"]
        assert len(ring) == RETIRED_RING_SIZE
        assert evicted == list(range(2, 52))
        promoted = standby.promote(make_backend())
        try:
            assert promoted.last_recovery.replay_errors == 0
            promoted.validate()
            for tid in ring + [evicted[0], evicted[-1]]:
                assert answer(promoted, tid) == on_primary[tid], tid
            assert answer(promoted, 1)[0] is TicketStatus.LIVE
        finally:
            promoted.shutdown()

    def test_promoted_service_admits_new_work(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        sid = service.open_session("alice")
        service.submit(sid, Q_LIGHT)
        assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
        replicator.kill()
        assert not replicator._thread.is_alive()
        service.simulate_crash()

        promoted = standby.promote(make_backend())
        try:
            new_sid = promoted.open_session("bob")
            ticket = promoted.submit(new_sid, Q_TEMP)
            assert ticket.status is TicketStatus.LIVE
        finally:
            promoted.shutdown()

    def test_promote_is_terminal_for_the_standby(self, tmp_path):
        service, replicator, standby = make_pair(tmp_path)
        assert replicator.wait_acked(replicator.last_seq, timeout=10.0)
        replicator.kill()
        assert not replicator._thread.is_alive()
        service.simulate_crash()
        promoted = standby.promote(make_backend())
        try:
            assert not standby._thread.is_alive()
            # The listener is gone: a second promote would re-recover the
            # directory, which stays valid, but following has stopped.
            import socket as socket_module
            host, port = standby.address
            with pytest.raises(OSError):
                socket_module.create_connection((host, port), timeout=0.5)
        finally:
            promoted.shutdown()


class TestSemiSyncOrdering:
    def test_wait_acked_from_many_threads(self, tmp_path):
        """Concurrent submitters each see their own seq acknowledged."""
        service, replicator, standby = make_pair(tmp_path)
        failures = []

        def submitter(index):
            try:
                sid = service.open_session(f"client-{index}")
                service.submit(sid, Q_LIGHT)
                seq = replicator.last_seq
                assert replicator.wait_acked(seq, timeout=15.0)
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not failures
            assert replicator.acked_seq == replicator.last_seq
        finally:
            stop_pair(replicator, standby)
            service.shutdown()
