"""Graceful shutdown of the scripted load / ``repro serve`` path."""

import json
import os
import signal
import sys
import threading

import pytest

from repro.service import DurabilityConfig, SnapshotStore, run_scripted_load

TERMINAL = {"terminated", "expired", "failed", "shed"}


def _no_zombies(state_dir):
    snapshot = SnapshotStore.load(
        DurabilityConfig(directory=str(state_dir)).snapshot_path)
    assert snapshot is not None
    statuses = {t["status"] for t in snapshot["tickets"]}
    assert statuses <= TERMINAL, statuses
    table = snapshot["optimizer"]["table"]
    assert not table["user"]
    assert not table["synthetic"]
    return snapshot


class TestGracefulShutdown:
    def test_state_dir_run_ends_at_a_clean_recovery_point(self, tmp_path):
        report = run_scripted_load(
            n_clients=10, n_unique=4, side=3, duration_s=12.0,
            seed=4, state_dir=str(tmp_path))
        assert not report.interrupted
        assert report.shutdown_terminated > 0
        assert report.resilience is not None
        assert report.resilience.wal_records > 0
        assert report.resilience.snapshots >= 1
        _no_zombies(tmp_path)

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="POSIX signal delivery")
    def test_sigint_mid_run_shuts_down_without_zombies(self, tmp_path):
        # The handler only sets a flag; the next service tick performs
        # the drain.  A big simulated horizon guarantees the run is
        # still mid-flight when the wall-clock timer fires.
        timer = threading.Timer(
            0.5, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            report = run_scripted_load(
                n_clients=120, n_unique=6, side=4, duration_s=900.0,
                seed=4, state_dir=str(tmp_path), handle_signals=True)
        finally:
            timer.cancel()
        assert report.interrupted
        assert report.shutdown_terminated > 0
        _no_zombies(tmp_path)
        # The run's handlers are gone: SIGINT behaves normally again.
        assert signal.getsignal(signal.SIGINT) is not None
        assert signal.getsignal(signal.SIGINT).__qualname__ != "_on_signal"
