"""Property-based crash-recovery tests: prefix crashes and torn writes.

The durability unit tests pin exact parity for one hand-written workload;
these let hypothesis hunt for an operation sequence and crash point where
``QueryService.recover`` does *not* reproduce the uncrashed run.  The
invariant under test is the chaos harness's core claim: for ANY prefix of
operations, crash-after-prefix + recover + remaining-suffix must land on
the same ``stats()`` and the same durable state (sessions, tickets,
cache, optimizer table) as never crashing at all.
"""

import shutil
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.harness.tier1_sim import default_cost_model
from repro.service import (
    DurabilityConfig,
    OptimizerBackend,
    QueryService,
    SessionError,
)

POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light FROM sensors WHERE light > 350 EPOCH DURATION 4096",
    "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
)

#: Op time step; with TTL 600 ms a session lapses ~12 ops after opening,
#: so longer sequences exercise automatic expiry on both sides of the
#: crash boundary.
STEP_MS = 50.0
TTL_MS = 600.0

_op = st.one_of(
    st.tuples(st.just("open"), st.integers(0, 3)),
    st.tuples(st.just("submit"), st.integers(0, 7), st.integers(0, 4),
              st.booleans()),
    st.tuples(st.just("terminate"), st.integers(0, 7), st.integers(1, 8)),
    st.tuples(st.just("close"), st.integers(0, 7)),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("tick"), st.just(0)),
)


def _make_service(directory, snapshot_every_ops):
    backend = OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3)))
    return QueryService(
        backend, batch_window_ms=120.0, default_ttl_ms=TTL_MS,
        durability=DurabilityConfig(directory=directory,
                                    snapshot_every_ops=snapshot_every_ops))


def _apply(service, op, index, sessions):
    """Run one generated op; swallow the domain errors it may raise.

    The same exception fires (and is swallowed) at the same index in the
    uncrashed run, the pre-crash prefix, the WAL replay, and the
    post-recovery suffix — raising IS part of the replayed behavior.
    """
    now = 100.0 + STEP_MS * index
    kind = op[0]
    try:
        if kind == "open":
            sessions.append(service.open_session(f"user-{op[1]}",
                                                 now_ms=now))
        elif kind == "submit":
            if not sessions:
                return
            sid = sessions[op[1] % len(sessions)]
            qos = QoSClass.RELIABLE if op[3] else QoSClass.BEST_EFFORT
            service.submit(sid, POOL[op[2]], now_ms=now, qos=qos)
        elif kind == "terminate":
            if not sessions:
                return
            service.terminate(sessions[op[1] % len(sessions)], op[2],
                              now_ms=now)
        elif kind == "close":
            if not sessions:
                return
            service.close_session(sessions[op[1] % len(sessions)],
                                  now_ms=now)
        elif kind == "flush":
            service.flush(now_ms=now)
        elif kind == "tick":
            service.tick(now_ms=now)
    except (SessionError, KeyError):
        pass


def _durable_state(service):
    """Comparable durable state (capture-instant field excluded)."""
    state = service._snapshot_state(0.0)
    state.pop("saved_ms", None)
    return state


def _final_flush_time(ops):
    return 100.0 + STEP_MS * len(ops)


def _run_uncrashed(ops, snapshot_every_ops):
    directory = tempfile.mkdtemp(prefix="repro-prop-a-")
    try:
        service = _make_service(directory, snapshot_every_ops)
        sessions = []
        for index, op in enumerate(ops):
            _apply(service, op, index, sessions)
        service.flush(now_ms=_final_flush_time(ops))
        return _durable_state(service), service.stats()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run_crashed(ops, crash_at, snapshot_every_ops):
    directory = tempfile.mkdtemp(prefix="repro-prop-b-")
    try:
        service = _make_service(directory, snapshot_every_ops)
        sessions = []
        for index, op in enumerate(ops[:crash_at]):
            _apply(service, op, index, sessions)
        service.simulate_crash()
        service = QueryService.recover(
            OptimizerBackend(
                BaseStationOptimizer(default_cost_model(16, 3))),
            DurabilityConfig(directory=directory,
                             snapshot_every_ops=snapshot_every_ops))
        for index, op in enumerate(ops[crash_at:], start=crash_at):
            _apply(service, op, index, sessions)
        service.flush(now_ms=_final_flush_time(ops))
        return _durable_state(service), service.stats()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class TestPrefixCrashParity:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=24),
           crash_frac=st.floats(0.0, 1.0),
           snapshot_every_ops=st.sampled_from([0, 3]))
    # A cancelled submission must not leave a tombstone in the batcher: the
    # snapshot at op 3 has none, so only the live service saw a due window
    # and journaled the final tick.
    @example(ops=[("open", 0), ("submit", 0, 0, False), ("close", 0),
                  ("open", 0), ("tick", 0)],
             crash_frac=0.75, snapshot_every_ops=3)
    def test_any_prefix_crash_recovers_to_uncrashed_state(
            self, ops, crash_frac, snapshot_every_ops):
        crash_at = round(crash_frac * len(ops))
        state_a, stats_a = _run_uncrashed(ops, snapshot_every_ops)
        state_b, stats_b = _run_crashed(ops, crash_at, snapshot_every_ops)
        assert stats_b == stats_a
        assert state_b == state_a


class TestTornWrites:
    @settings(max_examples=25, deadline=None)
    @given(cut_frac=st.floats(0.0, 1.0))
    def test_torn_final_record_recovers_the_prefix(self, cut_frac):
        """Cutting the WAL mid-final-record = that op never happened."""
        ops = [("open", 0), ("submit", 0, 0, False), ("flush", 0),
               ("submit", 0, 2, True), ("flush", 0), ("terminate", 0, 1)]
        directory = tempfile.mkdtemp(prefix="repro-torn-")
        reference = tempfile.mkdtemp(prefix="repro-torn-ref-")
        try:
            service = _make_service(directory, 0)
            sessions = []
            for index, op in enumerate(ops):
                _apply(service, op, index, sessions)
            service.simulate_crash()

            wal = DurabilityConfig(directory=directory).wal_path
            raw = wal.read_bytes()
            lines = raw.splitlines(keepends=True)
            last = lines[-1]
            # Tear strictly inside the final record: keep at least one
            # byte, drop at least one payload byte (dropping only the
            # newline still decodes — the framing tolerates it).
            keep = min(len(last) - 2, max(1, round(cut_frac * len(last))))
            wal.write_bytes(b"".join(lines[:-1]) + last[:keep])

            recovered = QueryService.recover(
                OptimizerBackend(
                    BaseStationOptimizer(default_cost_model(16, 3))),
                DurabilityConfig(directory=directory))
            assert recovered.last_recovery.torn_records == 1
            assert recovered.last_recovery.replayed_ops == len(ops) - 1
            recovered.validate()
            recovered_state = _durable_state(recovered)
            # A fresh run of every op but the torn one is the same state.
            twin = _make_service(reference, 0)
            sessions = []
            for index, op in enumerate(ops[:-1]):
                _apply(twin, op, index, sessions)
            assert recovered_state == _durable_state(twin)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            shutil.rmtree(reference, ignore_errors=True)
