"""Root coordinator behaviour over pure tier-1 admission shards."""

import json
import threading

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.cluster import (
    ClusterCoordinator,
    ClusterDeployment,
    ClusterScope,
    FieldPartition,
    ROOT_CLIENT,
)
from repro.harness.tier1_sim import default_cost_model
from repro.queries.ast import AggregateOp
from repro.service import OptimizerBackend, SessionError, TicketStatus

Q_GLOBAL = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_GLOBAL_VARIANT = "select LIGHT from sensors where 300 < light " \
                   "SAMPLE PERIOD 4096"
Q_AVG = "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192"
Q_ACQ = "SELECT temp FROM sensors WHERE temp > 0 EPOCH DURATION 4096"
# With side=8 and K=2 the row bands cover nodes 1..31 and 32..63.
Q_BAND0 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 31 "
           "EPOCH DURATION 4096")
Q_BAND1 = ("SELECT temp FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
           "EPOCH DURATION 4096")


def make_backends(k, nodes=16, depth=3):
    return [OptimizerBackend(BaseStationOptimizer(
        default_cost_model(nodes, depth))) for _ in range(k)]


def make_cluster(k=2, side=8, **kwargs):
    partition = FieldPartition(side, k)
    return ClusterCoordinator(make_backends(k), partition=partition,
                              **kwargs)


class TestRouting:
    def test_no_partition_routes_by_tenant_ring(self):
        coordinator = ClusterCoordinator(make_backends(4))
        tickets = []
        for index in range(16):
            sid = coordinator.open_session(f"tenant-{index}", now_ms=0.0)
            tickets.append((coordinator.submit(sid, Q_GLOBAL, now_ms=1.0),
                            f"tenant-{index}"))
        for ticket, client in tickets:
            assert ticket.scope == ClusterScope.LOCAL
            home = coordinator.home_shard(client)
            assert ticket.targets == (home,)
            assert ticket.ticket_id.startswith(f"shard-{home:02d}:")
        used = {t.targets[0] for t, _ in tickets}
        assert len(used) > 1, "16 tenants should spread across shards"

    def test_region_local_query_routes_to_its_shard(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        band0 = coordinator.submit(sid, Q_BAND0, now_ms=1.0)
        band1 = coordinator.submit(sid, Q_BAND1, now_ms=2.0)
        assert band0.scope == ClusterScope.LOCAL
        assert band0.targets == (0,) and band0.pruned == (1,)
        assert band1.targets == (1,) and band1.pruned == (0,)
        assert band0.ticket_id.startswith("shard-00:")
        assert band1.ticket_id.startswith("shard-01:")
        per_shard = coordinator.stats().per_shard
        assert per_shard[0].admitted_total == 1
        assert per_shard[1].admitted_total == 1

    def test_spanning_query_fans_out_to_every_target(self):
        coordinator = make_cluster(k=4, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        ticket = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        assert ticket.scope == ClusterScope.FANOUT
        assert ticket.targets == (0, 1, 2, 3)
        assert ticket.ticket_id == "root:1"
        assert ticket.status is TicketStatus.LIVE
        stats = coordinator.stats()
        assert stats.fanout_submissions == 1
        assert stats.fanout_subqueries == 4
        for shard_stats in stats.per_shard:
            assert shard_stats.admitted_total == 1


class TestRootDedup:
    def test_duplicate_fanouts_share_one_anchor(self):
        coordinator = make_cluster(k=2, side=8)
        sids = [coordinator.open_session(f"t{i}", now_ms=0.0)
                for i in range(3)]
        first = coordinator.submit(sids[0], Q_GLOBAL, now_ms=1.0)
        second = coordinator.submit(sids[1], Q_GLOBAL_VARIANT, now_ms=2.0)
        third = coordinator.submit(sids[2], Q_GLOBAL, now_ms=3.0)
        assert not first.cache_hit
        assert second.cache_hit and third.cache_hit
        assert first.fan_key == second.fan_key == third.fan_key
        stats = coordinator.stats()
        assert stats.root_dedup_hits == 2
        assert stats.fanout_subqueries == 2  # one per shard, once
        assert stats.live_anchors == 1
        # Shard-side: exactly one live ticket per shard, owned by the root.
        for service in coordinator.shard_services():
            live = service.live_tickets()
            assert len(live) == 1
            assert service.find_sessions(ROOT_CLIENT) == [live[0].session_id]
        coordinator.validate()

    def test_terminate_releases_on_last_holder_only(self):
        coordinator = make_cluster(k=2, side=8)
        sids = [coordinator.open_session(f"t{i}", now_ms=0.0)
                for i in range(2)]
        first = coordinator.submit(sids[0], Q_GLOBAL, now_ms=1.0)
        second = coordinator.submit(sids[1], Q_GLOBAL, now_ms=2.0)
        coordinator.terminate(sids[0], first.ticket_id, now_ms=3.0)
        assert first.status is TicketStatus.TERMINATED
        assert second.status is TicketStatus.LIVE
        assert coordinator.stats().live_anchors == 1
        coordinator.terminate(sids[1], second.ticket_id, now_ms=4.0)
        assert coordinator.stats().live_anchors == 0
        for service in coordinator.shard_services():
            assert service.live_tickets() == []
        coordinator.validate()

    def test_terminating_unknown_ticket_raises(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        with pytest.raises(KeyError):
            coordinator.terminate(sid, "root:404", now_ms=1.0)


class TestRootRewrite:
    def test_avg_fans_out_as_sum_plus_count(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        ticket = coordinator.submit(sid, Q_AVG, now_ms=1.0)
        assert ticket.scope == ClusterScope.FANOUT
        # The user-facing canonical query still asks for AVG...
        assert [a.op for a in ticket.query.aggregates] == [AggregateOp.AVG]
        # ...but every shard runs the mergeable SUM+COUNT form.
        for sub in ticket.shard_tickets:
            ops = sorted((a.op for a in sub.query.aggregates),
                         key=lambda op: op.name)
            assert ops == [AggregateOp.COUNT, AggregateOp.SUM]

    def test_single_target_avg_is_not_decomposed(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        ticket = coordinator.submit(
            sid, "SELECT AVG(temp) FROM sensors WHERE nodeid < 10 "
                 "EPOCH DURATION 8192", now_ms=1.0)
        assert ticket.scope == ClusterScope.LOCAL
        sub = ticket.shard_tickets[0]
        assert [a.op for a in sub.query.aggregates] == [AggregateOp.AVG]

    def test_explain_leaves_every_shard_untouched(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_AVG, now_ms=1.0)
        shards = coordinator.shard_services()

        def tier1():
            return [(s.optimizer.qids.next_value, s.optimizer.table.to_dict())
                    for s in shards]

        before = tier1()
        assert len(coordinator.explain(Q_GLOBAL, session_id=sid).shards) == 2
        coordinator.explain(Q_AVG)  # a root dedup hit
        assert tier1() == before


class TestSessions:
    def test_close_session_cascades_to_shards(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_BAND0, now_ms=1.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=2.0)
        coordinator.close_session(sid, now_ms=3.0)
        with pytest.raises(SessionError):
            coordinator.submit(sid, Q_BAND0, now_ms=4.0)
        assert coordinator.stats().live_anchors == 0
        for service in coordinator.shard_services():
            assert service.live_tickets() == []
            # The tenant's shard-side sessions are gone; only the root's
            # fan-out session may remain.
            open_clients = {service.stats().sessions_open}
        coordinator.validate()

    def test_lease_expiry_cascades(self):
        coordinator = make_cluster(k=2, side=8, default_ttl_ms=1000.0)
        sid = coordinator.open_session("alice", now_ms=0.0)
        ticket = coordinator.submit(sid, Q_GLOBAL, now_ms=10.0)
        assert coordinator.expire_leases(now_ms=2000.0) == [sid]
        assert ticket.status is TicketStatus.TERMINATED
        assert coordinator.stats().sessions_expired_total == 1
        for service in coordinator.shard_services():
            assert service.live_tickets() == []

    def test_shutdown_terminates_everything(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        local = coordinator.submit(sid, Q_BAND0, now_ms=1.0)
        fanout = coordinator.submit(sid, Q_GLOBAL, now_ms=2.0)
        terminated = coordinator.shutdown(now_ms=3.0)
        assert sorted(terminated) == sorted([local.ticket_id,
                                             fanout.ticket_id])
        for service in coordinator.shard_services():
            assert service.live_tickets() == []


class TestStats:
    def test_submission_scopes_are_counted(self):
        coordinator = make_cluster(k=2, side=8)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_BAND0, now_ms=1.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=2.0)
        coordinator.submit(sid, Q_AVG, now_ms=3.0)
        stats = coordinator.stats()
        assert stats.shards == 2
        assert stats.submissions_total == 3
        assert stats.local_submissions == 1
        assert stats.fanout_submissions == 2
        assert stats.sessions_open == 1

    def test_instances_do_not_share_counters(self):
        first = make_cluster(k=2, side=8)
        sid = first.open_session("alice", now_ms=0.0)
        first.submit(sid, Q_GLOBAL, now_ms=1.0)
        second = make_cluster(k=2, side=8)
        assert second.stats().submissions_total == 0
        assert second.stats().fanout_subqueries == 0


class TestLateSubscriber:
    def test_bounded_replay_keeps_the_oldest_and_counts_the_rest(self):
        """Regression: replaying a fan-out's history into a late bounded
        subscriber blocked forever, under the coordinator lock, once the
        history was longer than ``maxsize``."""
        cluster = ClusterDeployment(FieldPartition(4, 2, quality_seed=7),
                                    seed=7)
        coordinator = cluster.coordinator
        early = coordinator.open_session("early")
        cluster.run_until(500.0)
        first = coordinator.submit(early, Q_ACQ)
        history = coordinator.subscribe(early, first.ticket_id)
        now = 500.0
        for _ in range(5):
            now += 4096.0
            cluster.run_until(now)
            cluster.pump()
        merged = []
        while not history.empty():
            merged.append(history.get_nowait())
        assert len(merged) > 2

        late = coordinator.open_session("late")
        second = coordinator.submit(late, Q_ACQ)
        assert second.cache_hit and second.fan_key == first.fan_key
        dropped_before = coordinator.stats().merge_duplicates_dropped
        result = {}
        worker = threading.Thread(
            target=lambda: result.setdefault("queue", coordinator.subscribe(
                late, second.ticket_id, maxsize=2)),
            daemon=True)
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), "subscribe blocked on its replay"
        replayed = result["queue"]
        assert replayed.qsize() == 2
        assert [replayed.get_nowait() for _ in range(2)] == merged[:2]
        assert (coordinator.stats().merge_duplicates_dropped
                == dropped_before + len(merged) - 2)


class TestRecovery:
    def test_root_wal_restores_sessions_and_anchors(self, tmp_path):
        """Root-WAL recovery: no orphans, no re-adoption, no re-fanning."""
        partition = FieldPartition(8, 2)
        coordinator = ClusterCoordinator(
            make_backends(2), partition=partition,
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        fanout = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        local = coordinator.submit(sid, Q_BAND0, now_ms=2.0)
        fan_key = fanout.fan_key

        # Crash: the root rebuilds from its own WAL; the tenant session
        # and its anchor refcount come back, so nothing is orphaned.
        recovered = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        assert recovered.orphan_anchors() == []
        assert recovered.stats().sessions_open == 1
        assert recovered.stats().live_anchors == 1
        report = recovered.last_root_recovery
        assert report is not None and report.replayed_ops > 0
        # Shard-side state survived too: the fan-out subqueries and the
        # tenant's local ticket are live again.
        live_counts = [len(s.live_tickets())
                       for s in recovered.shard_services()]
        assert live_counts == [2, 1]  # shard 0: fan + local; shard 1: fan
        # The acknowledged admissions resolve to live tickets.
        assert not recovered.ticket(fanout.ticket_id).terminated
        assert not recovered.ticket(local.ticket_id).terminated
        assert recovered.ticket(
            fanout.ticket_id).status is TicketStatus.LIVE

        # The restored session still works, and a re-ask of the same
        # spanning question rides the restored anchor.
        again = recovered.submit(sid, Q_GLOBAL, now_ms=3001.0)
        assert again.cache_hit
        assert again.fan_key == fan_key
        assert recovered.stats().fanout_subqueries == 0
        # Nothing to reap: abort_orphans is a no-op after root recovery.
        assert recovered.abort_orphans(now_ms=3002.0) == 0
        assert recovered.stats().live_anchors == 1
        recovered.validate()

    def test_dir_without_root_wal_is_refused(self, tmp_path):
        """No root journal, no recovery — and the refusal writes nothing."""
        import shutil

        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        for service in coordinator.shard_services():
            service.simulate_crash()
        coordinator.simulate_crash()
        shutil.rmtree(tmp_path / "root")
        shard_files = sorted(p for p in tmp_path.glob("shard-*/*")
                             if p.name in ("wal.jsonl", "snapshot.json"))
        assert shard_files
        before = {p: p.read_bytes() for p in shard_files}

        with pytest.raises(ValueError, match="root"):
            ClusterCoordinator.recover(
                make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        # Refused before any shard recovered: not one byte moved.
        assert {p: p.read_bytes() for p in shard_files} == before
        assert sorted(p for p in tmp_path.glob("shard-*/*")
                      if p.name in ("wal.jsonl", "snapshot.json")) \
            == shard_files
        assert not (tmp_path / "root").exists()

    def test_boot_record_is_not_counted_stale(self, tmp_path):
        """Regression: root replay skipped the boot record as *stale*."""
        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        recovered = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        report = recovered.last_root_recovery
        assert report.stale_ops == 0
        assert report.replay_errors == 0
        # open, root_session x2 (one per fan-out target), submit.
        assert report.replayed_ops == 4
        assert report.wal_records == 5  # those four plus the boot record

    def test_close_cut_short_by_a_crash_is_finished(self, tmp_path,
                                                    monkeypatch):
        """Regression: a crash between the root's close record and the
        shard-side release left the tenant's local query running."""
        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.submit(sid, Q_BAND0, now_ms=1.0)

        def killed(*args):
            raise RuntimeError("killed after the close record")

        monkeypatch.setattr(coordinator, "_release_session", killed)
        with pytest.raises(RuntimeError):
            coordinator.close_session(sid, now_ms=2.0)
        for service in coordinator.shard_services():
            service.simulate_crash()
        coordinator.simulate_crash()
        assert len([t for s in coordinator.shard_services()
                    for t in s.live_tickets()]) == 1

        recovered = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        assert recovered.last_root_recovery.zombies_aborted == 1
        for service in recovered.shard_services():
            assert service.live_tickets() == []
            assert service.find_sessions("alice") == []
        assert recovered.stats().sessions_open == 0
        recovered.validate()

    def test_stale_root_wal_window_is_skipped_not_reapplied(self, tmp_path):
        """Kill between the root snapshot save and the WAL rotation."""
        def _run(directory, interrupted):
            coordinator = ClusterCoordinator(
                make_backends(2), partition=FieldPartition(8, 2),
                durability_dir=directory)
            sids = [coordinator.open_session(f"t{i}", now_ms=0.0)
                    for i in range(2)]
            first = coordinator.submit(sids[0], Q_GLOBAL, now_ms=1.0)
            coordinator.submit(sids[1], Q_GLOBAL, now_ms=2.0)
            coordinator.submit(sids[0], Q_BAND0, now_ms=3.0)
            coordinator.terminate(sids[0], first.ticket_id, now_ms=4.0)
            wal = directory / "root" / "wal.jsonl"
            stale_wal = wal.read_bytes()
            coordinator.snapshot(now_ms=5.0)  # save, then rotate
            if interrupted:
                wal.write_bytes(stale_wal)  # undo the rotation only
            for service in coordinator.shard_services():
                service.simulate_crash()
            coordinator.simulate_crash()
            recovered = ClusterCoordinator.recover(
                make_backends(2), directory,
                partition=FieldPartition(8, 2))
            recovered.validate()
            assert recovered.orphan_anchors() == []
            state = recovered._root_snapshot_state(0.0)
            state.pop("saved_ms")
            state.pop("op_seq")
            return recovered.last_root_recovery, state

        window, window_state = _run(tmp_path / "window", interrupted=True)
        clean, clean_state = _run(tmp_path / "clean", interrupted=False)
        assert window.snapshot_loaded and clean.snapshot_loaded
        # Every record but the boot record is already in the snapshot:
        # counted stale, never re-applied.
        assert window.stale_ops == window.wal_records - 1 > 0
        assert window.replayed_ops == 0 and window.replay_errors == 0
        assert clean.wal_records == clean.stale_ops == 0
        assert window_state == clean_state
        assert len(window_state["sessions"]["sessions"]) == 2

    def test_double_recovery_is_idempotent(self, tmp_path):
        """recover -> crash -> recover lands on the identical state."""
        def _capture(coordinator):
            state = coordinator._root_snapshot_state(0.0)
            state.pop("saved_ms", None)
            state.pop("op_seq", None)  # recovery snapshots bump it
            return state

        def _crash(coordinator):
            for service in coordinator.shard_services():
                service.simulate_crash()
            coordinator.simulate_crash()

        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sids = [coordinator.open_session(f"t{i}", now_ms=0.0)
                for i in range(2)]
        first = coordinator.submit(sids[0], Q_GLOBAL, now_ms=1.0)
        coordinator.submit(sids[1], Q_GLOBAL, now_ms=2.0)
        coordinator.submit(sids[0], Q_BAND0, now_ms=3.0)
        coordinator.terminate(sids[0], first.ticket_id, now_ms=4.0)

        once = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        once.validate()
        assert once.orphan_anchors() == []
        assert once.abort_orphans(now_ms=10.0) == 0
        assert once.ticket(first.ticket_id).terminated
        state_once = _capture(once)
        _crash(once)

        twice = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        twice.validate()
        assert twice.orphan_anchors() == []
        state_twice = _capture(twice)
        # Reaping when there is nothing to reap changes nothing.
        assert twice.abort_orphans(now_ms=20.0) == 0
        assert _capture(twice) == state_twice
        assert state_once == state_twice

    def test_terminate_racing_shard_outage_releases_refcount_once(
            self, tmp_path):
        """Regression: a terminate racing a shard outage must not leak
        the root-anchor refcount — the shard-side terminate is queued
        and retried, the root bookkeeping is released exactly once."""
        from repro.service import QueryService

        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sids = [coordinator.open_session(f"t{i}", now_ms=0.0)
                for i in range(2)]
        first = coordinator.submit(sids[0], Q_GLOBAL, now_ms=1.0)
        second = coordinator.submit(sids[1], Q_GLOBAL, now_ms=2.0)

        # Shard 1 dies; both holders terminate during the outage.
        coordinator.shard_services()[1].simulate_crash()
        coordinator.terminate(sids[0], first.ticket_id, now_ms=3.0)
        coordinator.terminate(sids[1], second.ticket_id, now_ms=4.0)
        assert first.status is TicketStatus.TERMINATED
        assert second.status is TicketStatus.TERMINATED
        # Released exactly once each: the anchor is gone, nothing
        # leaked, even though shard 1 never saw its terminate.
        assert coordinator.stats().live_anchors == 0
        assert coordinator.orphan_anchors() == []
        assert 1 in coordinator.down_shards
        coordinator.validate()

        # Heal: the queued shard-side terminate drains exactly once.
        replacement = QueryService.recover(
            coordinator.shard_backends()[1], tmp_path / "shard-01")
        coordinator.replace_shard_service(1, replacement, now_ms=5.0)
        assert not coordinator.down_shards
        for service in coordinator.shard_services():
            assert service.live_tickets() == []
        coordinator.validate()

    def test_fanout_healed_after_an_outage_survives_a_root_crash(
            self, tmp_path):
        """The heal's ``fanout_sub`` record brings the healed subquery
        back: both subtickets are linked after a root crash."""
        from repro.service import QueryService

        coordinator = ClusterCoordinator(
            make_backends(2), partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        coordinator.shard_services()[1].simulate_crash()
        fanout = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        assert coordinator.down_shards == (1,)
        assert len(fanout.shard_tickets) == 1
        replacement = QueryService.recover(
            coordinator.shard_backends()[1], tmp_path / "shard-01")
        coordinator.replace_shard_service(1, replacement, now_ms=2.0)
        assert len(fanout.shard_tickets) == 2
        _crash(coordinator)
        ops = [json.loads(line.split(" ", 1)[1])["op"] for line in
               (tmp_path / "root" / "wal.jsonl").read_text().splitlines()]
        assert ops[-1] == "fanout_sub"

        recovered = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        recovered.validate()
        assert recovered.orphan_anchors() == []
        ticket = recovered.ticket(fanout.ticket_id)
        anchor = recovered._anchors[ticket.fan_key]
        assert sorted(anchor.subtickets) == [0, 1]
        assert ticket.shard_tickets == (anchor.subtickets[0],
                                        anchor.subtickets[1])
        assert ticket.status is TicketStatus.LIVE
        for shard_id, service in enumerate(recovered.shard_services()):
            assert [t.ticket_id for t in service.live_tickets()] == [
                anchor.subtickets[shard_id].ticket_id]

    def test_heal_reads_a_failed_subquery_however_much_the_shard_retired(
            self, tmp_path):
        """A shard ticket the root still holds stays answerable by
        ``ticket(id)`` after the shard has retired more tickets than its
        ring keeps: healing finds the failed subquery and resubmits
        nothing, and the fan-out still reads FAILED."""
        from repro.service import RETIRED_RING_SIZE, QueryService

        class RejectsLight(OptimizerBackend):
            def register(self, query, qos=None):
                if "light" in str(query):
                    raise RuntimeError("shard refuses light")
                super().register(query, qos=qos)

        backends = make_backends(2)
        backends[1] = RejectsLight(backends[1].optimizer)
        coordinator = ClusterCoordinator(
            backends, partition=FieldPartition(8, 2),
            durability_dir=tmp_path)
        sid = coordinator.open_session("alice", now_ms=0.0)
        fanout = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0)
        assert fanout.status is TicketStatus.FAILED
        for i in range(RETIRED_RING_SIZE + 1):
            local = coordinator.submit(sid, Q_BAND1, now_ms=2.0 + i)
            assert local.targets == (1,)
            coordinator.terminate(sid, local.ticket_id, now_ms=2.0 + i)
        coordinator.shard_services()[1].simulate_crash()
        submitted = coordinator.stats().fanout_subqueries
        replacement = QueryService.recover(
            coordinator.shard_backends()[1], tmp_path / "shard-01")
        coordinator.replace_shard_service(1, replacement, now_ms=500.0)
        assert coordinator.stats().fanout_subqueries == submitted
        assert fanout.status is TicketStatus.FAILED
        coordinator.validate()
        _crash(coordinator)

    def test_abort_orphans_is_replayed(self, tmp_path):
        """An ``abort_orphans`` record drops the anchor again on replay."""
        key = _orphan_directory(tmp_path)
        coordinator = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        assert coordinator.orphan_anchors() == [key]
        assert coordinator.abort_orphans(now_ms=3.0) == 1
        _crash(coordinator)
        recovered = ClusterCoordinator.recover(
            make_backends(2), tmp_path, partition=FieldPartition(8, 2))
        assert recovered.last_root_recovery.replayed_ops == 1
        assert recovered.orphan_anchors() == []
        assert recovered.stats().live_anchors == 0
        for service in recovered.shard_services():
            assert service.live_tickets() == []
        recovered.validate()

    def test_shutdown_drains_orphan_anchors_live_and_replayed(
            self, tmp_path, monkeypatch):
        """Shutdown releases refcount-0 anchors along with every ticket,
        and a replayed ``shutdown`` record lands on the same root state."""
        import shutil

        from repro.service import QueryService

        key = _orphan_directory(tmp_path / "live")
        shutil.copytree(tmp_path / "live", tmp_path / "replayed")

        def _state(coordinator):
            state = coordinator._root_snapshot_state(0.0)
            state.pop("saved_ms")
            state.pop("op_seq")
            return state

        live = ClusterCoordinator.recover(
            make_backends(2), tmp_path / "live",
            partition=FieldPartition(8, 2))
        assert live.orphan_anchors() == [key]
        live.shutdown(now_ms=3.0)
        assert live.orphan_anchors() == []
        assert live.stats().live_anchors == 0
        for service in live.shard_services():
            assert service.live_tickets() == []

        def killed(*args, **kwargs):
            raise RuntimeError("killed after the shutdown record")

        doomed = ClusterCoordinator.recover(
            make_backends(2), tmp_path / "replayed",
            partition=FieldPartition(8, 2))
        with monkeypatch.context() as patch:
            patch.setattr(QueryService, "shutdown", killed)
            with pytest.raises(RuntimeError):
                doomed.shutdown(now_ms=3.0)
        _crash(doomed)
        replayed = ClusterCoordinator.recover(
            make_backends(2), tmp_path / "replayed",
            partition=FieldPartition(8, 2))
        assert replayed.last_root_recovery.replayed_ops == 1
        assert replayed.orphan_anchors() == []
        assert _state(replayed) == _state(live)
        replayed.validate()


def _crash(coordinator):
    for service in coordinator.shard_services():
        service.simulate_crash()
    coordinator.simulate_crash()


def _orphan_directory(directory):
    """A crashed cluster whose root snapshot holds one fan-out anchor that
    no live ticket claims (an older coordinator could leave one); its
    shard subqueries still run.  Returns the anchor's key."""
    coordinator = ClusterCoordinator(
        make_backends(2), partition=FieldPartition(8, 2),
        durability_dir=directory)
    sid = coordinator.open_session("alice", now_ms=0.0)
    key = coordinator.submit(sid, Q_GLOBAL, now_ms=1.0).fan_key
    coordinator.snapshot(now_ms=2.0)
    _crash(coordinator)
    path = directory / "root" / "snapshot.json"
    state = json.loads(path.read_text())
    for ticket in state["tickets"]:
        ticket["terminated"] = True
    path.write_text(json.dumps(state, sort_keys=True))
    return key
