"""A service directory written before tickets retired still recovers.

``tests/data/golden_service_state_v1.json`` holds a durability directory
(``snapshot.json`` and ``wal.jsonl``, as the bytes on disk) written by the
build whose ledger kept every ticket it ever issued: its snapshot lists
terminal tickets of all four terminal statuses beside the live ones, and
its WAL suffix retires more.  Beside the files it holds what that build
answered, right before the crash, for every ticket id (status, error,
cache hit) and the PENDING/LIVE tickets themselves.

Recovery must fold the old snapshot's terminal entries into the retired
ring, replay the suffix, and answer the same.

The golden was written by the build before the retired ring, with:

    PYTHONPATH=<that build's src> python -m tests.service.test_format_compat

Run against a later build, the same command would pin that build's
format instead, so it refuses.
"""

import json
import sys
from pathlib import Path

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.service import (
    DurabilityConfig,
    OptimizerBackend,
    OverloadConfig,
    QueryService,
    TicketStatus,
)
from repro.service.service import _ticket_to_dict

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "data"
               / "golden_service_state_v1.json")
FILES = ("snapshot.json", "wal.jsonl")

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"
Q_MAX = "SELECT MAX(light) FROM sensors EPOCH DURATION 8192"
Q_AVG = "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192"
#: The optimizer refuses this one (FAILED tickets).
Q_REJECTED = "SELECT humidity FROM sensors EPOCH DURATION 12288"

#: Not durable state: recovery is handed the same thresholds.
OVERLOAD = OverloadConfig(shed_backlog_best_effort=2)


class _RejectingBackend(OptimizerBackend):
    """Tier 1 that refuses every query sampling humidity."""

    def register(self, query, qos=None):
        if "humidity" in str(query):
            raise RuntimeError("optimizer refuses humidity")
        super().register(query, qos=qos)


def _backend():
    return _RejectingBackend(BaseStationOptimizer(default_cost_model(16, 3)))


def _answers(service):
    return {str(tid): [service.ticket(tid).status.value,
                       service.ticket(tid).error,
                       service.ticket(tid).cache_hit]
            for tid in range(1, service._next_ticket + 1)}


def _ledger(service):
    return [_ticket_to_dict(ticket)
            for ticket in sorted(service.live_tickets()
                                 + _pending(service),
                                 key=lambda t: t.ticket_id)]


def _pending(service):
    return [service.ticket(p.ticket_id) for p in service._batcher.pending()]


def write_state(directory):
    """Drive a durable service into the golden's state, then crash it."""
    service = QueryService(
        _backend(), batch_window_ms=10.0, overload=OVERLOAD,
        durability=DurabilityConfig(directory=str(directory)))
    alice = service.open_session("alice", ttl_ms=1e9, now_ms=0.0)
    brief = service.open_session("brief", ttl_ms=50.0, now_ms=0.0)
    # LIVE (one of them a cache hit), then one TERMINATED.
    light = service.submit(alice, Q_LIGHT, now_ms=1.0)
    service.submit(alice, Q_LIGHT, now_ms=2.0)
    service.flush(now_ms=3.0)
    service.submit(alice, Q_TEMP, now_ms=4.0)
    service.submit(brief, Q_MAX, now_ms=5.0)
    service.flush(now_ms=6.0)
    service.terminate(alice, light.ticket_id, now_ms=7.0)
    # FAILED.
    service.submit(alice, Q_REJECTED, now_ms=8.0)
    service.flush(now_ms=9.0)
    # SHED: the third pending BEST_EFFORT submission.
    service.submit(alice, Q_AVG, now_ms=10.0)
    service.submit(alice, Q_AVG, now_ms=11.0)
    service.submit(alice, Q_MAX, now_ms=12.0)
    service.flush(now_ms=13.0)
    # EXPIRED: brief's lease lapsed at 50.
    service.tick(now_ms=70.0)
    service.snapshot(now_ms=71.0)
    # The WAL suffix: each kind of retirement again, and a PENDING ticket.
    temp = service.submit(alice, Q_TEMP, now_ms=80.0)
    service.flush(now_ms=81.0)
    service.terminate(alice, temp.ticket_id, now_ms=82.0)
    service.submit(alice, Q_REJECTED, now_ms=83.0)
    service.flush(now_ms=84.0)
    late = service.open_session("late", ttl_ms=30.0, now_ms=85.0)
    service.submit(late, Q_LIGHT, now_ms=86.0)
    service.submit(alice, Q_AVG, now_ms=87.0)
    service.submit(alice, Q_MAX, now_ms=88.0)
    service.tick(now_ms=120.0)
    service.submit(alice, Q_LIGHT, now_ms=121.0)
    expected = {"answers": _answers(service), "ledger": _ledger(service)}
    service.simulate_crash()
    return expected


def golden_state():
    from tempfile import TemporaryDirectory

    with TemporaryDirectory() as tmp, scoped():
        directory = Path(tmp) / "service"
        expected = write_state(directory)
        files = {name: (directory / name).read_text(encoding="utf-8")
                 for name in FILES}
    return {"files": files, "expected": expected}


def _recover(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    directory = tmp_path / "service"
    directory.mkdir()
    for name, text in golden["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    service = QueryService.recover(_backend(), str(directory),
                                   overload=OVERLOAD)
    return golden, service


def test_the_old_snapshot_holds_every_terminal_status():
    """Vacuity: the parent's snapshot kept terminal tickets of all four
    statuses, and the suffix retires more."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    snapshot = json.loads(golden["files"]["snapshot.json"])
    assert "retired" not in snapshot
    statuses = {ticket["status"] for ticket in snapshot["tickets"]}
    assert statuses >= {"terminated", "expired", "failed", "shed"}
    records = [json.loads(line.split(" ", 1)[1])
               for line in golden["files"]["wal.jsonl"].splitlines()]
    assert {"terminate", "tick", "flush"} <= {r["op"] for r in records}
    answered = {status for status, _, _ in golden["expected"]["answers"]
                .values()}
    assert answered == {s.value for s in TicketStatus}


def test_an_old_directory_recovers_with_the_old_answers(tmp_path):
    with scoped():
        golden, service = _recover(tmp_path)
        report = service.last_recovery
        assert report.snapshot_loaded and report.replay_errors == 0
        assert report.replayed_ops > 0
        service.validate()
        expected = golden["expected"]
        assert _ledger(service) == expected["ledger"]
        for tid, (status, error, cache_hit) in expected["answers"].items():
            ticket = service.ticket(int(tid))
            assert [ticket.status.value, ticket.error, ticket.cache_hit] == \
                [status, error, cache_hit], tid
            assert ticket.terminated == (status not in ("pending", "live"))
        # The recovery checkpoint rewrote the directory in the new format:
        # live tickets in "tickets", the shed and failed ones alice still
        # lists held, the rest in the ring.
        state = service._snapshot_state(0.0)
        assert [t["ticket_id"] for t in state["tickets"]] == [
            t["ticket_id"] for t in expected["ledger"]]
        terminal = sorted(int(tid) for tid, (status, _, _)
                          in expected["answers"].items()
                          if status not in ("pending", "live"))
        assert sorted(row[0] for row in state["held"] + state["retired"]) \
            == terminal
        assert {row[2] for row in state["held"]} == {"shed", "failed"}
        assert {row[2] for row in state["retired"]} == {"terminated",
                                                        "expired"}
        service.shutdown()


if __name__ == "__main__":
    import repro.service

    if hasattr(repro.service, "RETIRED_RING_SIZE"):
        sys.exit("this build retires tickets; the golden pins the format "
                 "of the build before it")
    GOLDEN_PATH.write_text(
        json.dumps(golden_state(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
