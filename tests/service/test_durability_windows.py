"""Crash-window durability: stale WALs, directory fsync, torn tails.

The snapshot path has a two-step commit — ``SnapshotStore.save`` then
``WriteAheadLog.rotate`` — and a kill between them leaves a *newer
snapshot beside a stale WAL*.  These tests pin the recovery semantics of
that window (skip, don't double-apply), the directory-metadata fsync
sites added for power-loss safety, and the streaming torn-tail loader.
"""

import os
import threading

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.service import (
    DurabilityConfig,
    OptimizerBackend,
    QueryService,
    SnapshotStore,
    WriteAheadLog,
)
from repro.service.durability import _frame

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"
Q_MAX = "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"


def make_backend():
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("snapshot_every_ops", 1000)
    return QueryService(
        make_backend(), batch_window_ms=0.0,
        durability=DurabilityConfig(directory=str(tmp_path / "state"),
                                    **kwargs))


def durable_state(service):
    """Comparable durable state (chaos-harness convention: drop the
    capture timestamp and the at-least-once delivery counter)."""
    state = service._snapshot_state(0.0)
    state.pop("saved_ms", None)
    state["counters"].pop("delivered", None)
    return state


class TestStaleWalWindow:
    """Kill between ``SnapshotStore.save`` and ``WriteAheadLog.rotate``."""

    def _crash_in_window(self, tmp_path):
        """Build a directory exactly as that kill would leave it."""
        service = make_service(tmp_path)
        sid = service.open_session("alice")
        tickets = [service.submit(sid, Q_LIGHT),
                   service.submit(sid, Q_TEMP)]
        service.terminate(sid, tickets[1].ticket_id)
        wal_path = service._journal.config.wal_path
        stale_wal = wal_path.read_bytes()  # records the snapshot will hold
        service.snapshot()                 # save + rotate
        service.simulate_crash()
        # Undo the rotation only: newer snapshot + stale WAL on disk.
        wal_path.write_bytes(stale_wal)
        return tmp_path / "state", tickets[0].ticket_id

    def test_stale_records_are_skipped_not_double_applied(self, tmp_path):
        state_dir, live_ticket = self._crash_in_window(tmp_path)
        recovered = QueryService.recover(make_backend(), str(state_dir))
        report = recovered.last_recovery
        assert report.snapshot_loaded
        assert report.stale_ops == 4  # open + 2 submits + terminate
        assert report.replayed_ops == 0
        assert report.replay_errors == 0
        assert recovered.resilience_stats().wal_stale_records == 4
        # No duplicates: one session, the original tickets, nothing more.
        assert recovered.stats().sessions_open == 1
        assert [t.ticket_id for t in recovered.live_tickets()] \
            == [live_ticket]
        recovered.shutdown()

    def test_window_recovery_matches_clean_recovery(self, tmp_path):
        """The stale-WAL dir recovers to the same state as the clean one."""
        state_dir, _ = self._crash_in_window(tmp_path)
        stale_recovered = QueryService.recover(make_backend(),
                                               str(state_dir))
        stale_state = durable_state(stale_recovered)
        stale_recovered.simulate_crash()
        # Second recovery is from the *clean* post-shutdown directory the
        # first recovery rewrote (fresh snapshot, rotated WAL).
        clean_recovered = QueryService.recover(make_backend(),
                                               str(state_dir))
        assert durable_state(clean_recovered) == stale_state
        assert clean_recovered.last_recovery.stale_ops == 0
        clean_recovered.shutdown()

    def test_post_window_ops_still_replay(self, tmp_path):
        """Stale prefix skipped, live suffix replayed — both in one WAL."""
        state_dir, _ = self._crash_in_window(tmp_path)
        # Append a genuinely-new record after the stale ones, as if the
        # service had survived the interrupted rotation and kept going:
        # its seq (5) is past the snapshot's op_seq (4).
        with open(state_dir / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write(_frame({"op": "open", "client": "bob", "ttl": None,
                             "now": 99.0, "seq": 5}))
        recovered = QueryService.recover(make_backend(), str(state_dir))
        report = recovered.last_recovery
        assert report.stale_ops == 4
        assert report.replayed_ops == 1
        assert report.replay_errors == 0
        assert recovered.stats().sessions_open == 2  # alice + bob
        assert recovered._journal.seq == 5  # cursor advanced past the suffix
        recovered.shutdown()

    def test_op_seq_survives_recovery_and_rotation(self, tmp_path):
        service = make_service(tmp_path)
        sid = service.open_session("alice")
        service.submit(sid, Q_LIGHT)
        assert service._journal.seq == 2
        service.snapshot()  # rotation must NOT reset the monotone seq
        service.submit(sid, Q_TEMP)
        assert service._journal.seq == 3
        service.simulate_crash()
        recovered = QueryService.recover(make_backend(),
                                         str(tmp_path / "state"))
        sid2 = recovered.open_session("bob")
        records, _ = WriteAheadLog.load(recovered._journal.config.wal_path)
        assert records[-1]["op"] == "open"
        assert records[-1]["seq"] == 4  # continues, never reuses
        recovered.close_session(sid2)
        recovered.shutdown()


class TestDirectoryFsync:
    """The rename/create/truncate sites fsync their parent directory."""

    def _count_dir_fsyncs(self, monkeypatch):
        import repro.service.durability as durability
        calls = []
        real = durability._fsync_dir
        monkeypatch.setattr(durability, "_fsync_dir",
                            lambda path: calls.append(str(path)) or
                            real(path))
        return calls

    def test_snapshot_save_fsyncs_dir_after_replace(self, tmp_path,
                                                    monkeypatch):
        calls = self._count_dir_fsyncs(monkeypatch)
        SnapshotStore.save(tmp_path / "snapshot.json", {"x": 1})
        assert calls == [str(tmp_path)]

    def test_snapshot_save_can_skip_dir_fsync(self, tmp_path, monkeypatch):
        calls = self._count_dir_fsyncs(monkeypatch)
        SnapshotStore.save(tmp_path / "snapshot.json", {"x": 1},
                           fsync_dir=False)
        assert calls == []

    def test_wal_create_fsyncs_dir_only_when_new(self, tmp_path,
                                                 monkeypatch):
        calls = self._count_dir_fsyncs(monkeypatch)
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=True)
        assert calls == [str(tmp_path)]  # file creation is dir metadata
        wal.close()
        WriteAheadLog(tmp_path / "wal.jsonl", fsync=True).close()
        assert calls == [str(tmp_path)]  # reopening an existing file isn't

    def test_wal_rotate_fsyncs_dir(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=True)
        calls = self._count_dir_fsyncs(monkeypatch)
        wal.append({"op": "x"})
        assert calls == []  # appends are file data, not dir metadata
        wal.rotate()
        assert calls == [str(tmp_path)]
        wal.close()

    def test_no_dir_fsync_when_durability_fsync_off(self, tmp_path,
                                                    monkeypatch):
        calls = self._count_dir_fsyncs(monkeypatch)
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=False)
        wal.append({"op": "x"})
        wal.rotate()
        wal.close()
        assert calls == []

    def test_fsync_dir_is_noop_on_unopenable_path(self, tmp_path):
        from repro.service.durability import _fsync_dir
        _fsync_dir(tmp_path / "does-not-exist")  # must not raise


class TestStreamingTornLoad:
    """``WriteAheadLog.load`` streams and counts everything past a tear."""

    def _write_wal(self, path, good, torn_lines):
        lines = [_frame({"op": "open", "client": f"c{i}", "ttl": None,
                         "now": float(i), "seq": i + 1})
                 for i in range(good)]
        lines.extend(torn_lines)
        path.write_text("".join(lines), encoding="utf-8")

    def test_tear_mid_file_counts_whole_suffix(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        good = [_frame({"op": "open", "client": "a", "ttl": None,
                        "now": 0.0, "seq": 1})]
        # A corrupt record followed by two VALID lines: after a tear,
        # nothing downstream is trustworthy — count all three as torn.
        bad = ["deadbeef {broken json\n",
               _frame({"op": "open", "client": "b", "ttl": None,
                       "now": 1.0, "seq": 3}),
               _frame({"op": "open", "client": "c", "ttl": None,
                       "now": 2.0, "seq": 4})]
        path.write_text("".join(good + bad), encoding="utf-8")
        records, torn = WriteAheadLog.load(path)
        assert len(records) == 1
        assert torn == 3

    def test_blank_lines_are_not_records(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        frame = _frame({"op": "open", "client": "a", "ttl": None,
                        "now": 0.0, "seq": 1})
        path.write_text(f"\n{frame}\n\n", encoding="utf-8")
        records, torn = WriteAheadLog.load(path)
        assert len(records) == 1
        assert torn == 0

    def test_recovery_surfaces_torn_count(self, tmp_path):
        service = make_service(tmp_path)
        sid = service.open_session("alice")
        service.submit(sid, Q_LIGHT)
        wal_path = service._journal.config.wal_path
        service.simulate_crash()
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('0bad0bad {"op": "submit", "torn": tru')  # torn tail
        recovered = QueryService.recover(make_backend(),
                                         str(tmp_path / "state"))
        assert recovered.last_recovery.torn_records == 1
        assert recovered.resilience_stats().wal_torn_records == 1
        recovered.shutdown()

    def test_load_does_not_slurp(self, tmp_path, monkeypatch):
        """The loader must stream line-by-line, never readlines()."""
        path = tmp_path / "wal.jsonl"
        self._write_wal(path, good=5, torn_lines=[])

        import builtins

        import repro.service.durability as durability

        class _StreamOnly:
            """File wrapper that only permits iteration + close."""

            def __init__(self, fh):
                self._fh = fh

            def __iter__(self):
                return iter(self._fh)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def __getattr__(self, name):
                raise AssertionError(
                    f"WriteAheadLog.load used {name}() instead of "
                    f"streaming line-by-line")

        real_open = builtins.open

        def guarded_open(p, *args, **kwargs):
            return _StreamOnly(real_open(p, *args, **kwargs))

        # The module resolves the bare name `open` through its globals,
        # so an injected module attribute shadows the builtin.
        monkeypatch.setattr(durability, "open", guarded_open,
                            raising=False)
        records, torn = WriteAheadLog.load(path)
        assert len(records) == 5
        assert torn == 0


class TestOffMainThreadSignals:
    """``run_scripted_load(handle_signals=True)`` off the main thread."""

    def test_warns_instead_of_raising(self):
        from repro.service import run_scripted_load
        outcome = {}

        def host():
            with pytest.warns(RuntimeWarning,
                              match="signal handlers not installed"):
                outcome["report"] = run_scripted_load(
                    n_clients=4, n_unique=2, side=3, duration_s=8.0,
                    seed=1, batch_window_ms=256.0, handle_signals=True)

        thread = threading.Thread(target=host)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        assert outcome["report"].stats.admitted_total > 0
        assert outcome["report"].interrupted is False

    def test_stop_event_triggers_graceful_drain(self):
        from repro.service import run_scripted_load
        stop = threading.Event()
        outcome = {}

        def host():
            stop.set()  # requested before the first housekeeping tick
            outcome["report"] = run_scripted_load(
                n_clients=4, n_unique=2, side=3, duration_s=20.0,
                seed=1, batch_window_ms=256.0, handle_signals=False,
                stop_event=stop)

        thread = threading.Thread(target=host)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        report = outcome["report"]
        assert report.interrupted is True  # drained early, not at horizon

    def test_main_thread_still_installs_handlers(self):
        import signal
        from repro.service import run_scripted_load
        before = signal.getsignal(signal.SIGTERM)
        report = run_scripted_load(
            n_clients=4, n_unique=2, side=3, duration_s=8.0, seed=1,
            batch_window_ms=256.0, handle_signals=True)
        assert report.stats.admitted_total > 0
        # Handlers restored on exit.
        assert signal.getsignal(signal.SIGTERM) is before
