"""Concurrency stress: N threads through the service must never corrupt
the query table.

The paper's algorithms were designed for a single-threaded base station;
the service layer promises they survive concurrent tenants.  These tests
interleave register/terminate from many threads and assert the
:meth:`QueryTable.validate` cross-record invariants (plus the service's
own cache/refcount invariants) at every quiescent point and at the end.
"""

import random
import threading

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.queries import parse_query
from repro.service import OptimizerBackend, QueryService

N_THREADS = 8
OPS_PER_THREAD = 40

POOL = [
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light FROM sensors WHERE light > 100 EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors WHERE temp > 15 EPOCH DURATION 4096",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 8192",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT MIN(temp) FROM sensors WHERE light > 200 EPOCH DURATION 8192",
    "SELECT nodeid FROM sensors EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
]


def test_service_stress_interleaved_register_terminate():
    """Threads submit/terminate via the service; invariants always hold."""
    optimizer = BaseStationOptimizer(default_cost_model(64, 5))
    service = QueryService(OptimizerBackend(optimizer))
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def client(thread_id: int) -> None:
        rng = random.Random(thread_id)
        try:
            sid = service.open_session(f"worker-{thread_id}", now_ms=0.0)
            live = []
            barrier.wait()
            for op in range(OPS_PER_THREAD):
                if live and rng.random() < 0.45:
                    ticket = live.pop(rng.randrange(len(live)))
                    service.terminate(sid, ticket.ticket_id, now_ms=float(op))
                else:
                    text = rng.choice(POOL)
                    live.append(service.submit(sid, text, now_ms=float(op)))
            # Leave roughly half the queries running at close.
            for ticket in live[::2]:
                service.terminate(sid, ticket.ticket_id,
                                  now_ms=float(OPS_PER_THREAD))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((thread_id, repr(exc)))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    service.validate()  # includes optimizer.table.validate()
    stats = service.stats()
    assert stats.submissions_total == stats.admitted_total
    # Every live optimizer user query is a cache anchor and vice versa.
    assert stats.live_user_queries == stats.live_cached_queries


def test_raw_optimizer_stress_with_lock():
    """Direct concurrent optimizer calls (the service's locking hooks)."""
    optimizer = BaseStationOptimizer(default_cost_model(64, 5))
    errors = []
    validate_lock = threading.Lock()

    def worker(thread_id: int) -> None:
        rng = random.Random(1000 + thread_id)
        mine = []
        try:
            for _ in range(OPS_PER_THREAD):
                if mine and rng.random() < 0.5:
                    optimizer.terminate(mine.pop())
                else:
                    query = parse_query(rng.choice(POOL))
                    optimizer.register(query)
                    mine.append(query.qid)
                # Validate under the optimizer's own lock so the check
                # itself sees a quiescent table.
                with optimizer.lock:
                    with validate_lock:
                        optimizer.table.validate()
            for qid in mine:
                optimizer.terminate(qid)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((thread_id, repr(exc)))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    optimizer.table.validate()
    assert optimizer.user_count() == 0
    assert optimizer.synthetic_count() == 0


def test_stats_snapshot_safe_during_writes():
    """Readers (stats/validate) race writers without tripping invariants."""
    optimizer = BaseStationOptimizer(default_cost_model(16, 3))
    service = QueryService(OptimizerBackend(optimizer))
    stop = threading.Event()
    errors = []

    def reader() -> None:
        try:
            while not stop.is_set():
                stats = service.stats()
                assert stats.live_user_queries >= 0
                service.validate()
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    def writer() -> None:
        rng = random.Random(7)
        try:
            sid = service.open_session("writer", now_ms=0.0)
            live = []
            for op in range(OPS_PER_THREAD * 2):
                if live and rng.random() < 0.5:
                    service.terminate(sid, live.pop(), now_ms=float(op))
                else:
                    ticket = service.submit(sid, rng.choice(POOL),
                                            now_ms=float(op))
                    live.append(ticket.ticket_id)
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))
        finally:
            stop.set()

    threads = [threading.Thread(target=reader),
               threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    service.validate()
