"""Qids belong to an optimizer: a recovered service re-derives its own.

A service issues each submission's qid from its optimizer's allocator
inside the journaled operation, and Algorithms 1 and 2 draw synthetic
qids from the same allocator.  So a recovered optimizer equals the
crashed one, qids included, whatever else ran in the process and
whatever submission was rejected before it was journaled.
"""

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.harness.tier1_sim import default_cost_model
from repro.obs import scoped
from repro.queries import QueryValidationError
from repro.service import OptimizerBackend, QueryService

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_INVALID = "SELECT light, light FROM sensors EPOCH DURATION 4096"


def _service(directory):
    backend = OptimizerBackend(BaseStationOptimizer(default_cost_model(16, 3)))
    if directory.exists():
        return QueryService.recover(backend, str(directory))
    return QueryService(backend, batch_window_ms=100.0,
                        durability=str(directory))


def _assert_recovers_its_qids(service, directory):
    live = service.optimizer
    assert live.synthetic_queries()
    service.simulate_crash()
    recovered = _service(directory).optimizer
    assert recovered.synthetic_queries() == live.synthetic_queries()
    assert recovered.snapshot_state() == live.snapshot_state()


def test_another_service_in_the_process_cannot_rename_a_recovery(tmp_path):
    with scoped():
        a, b = _service(tmp_path / "a"), _service(tmp_path / "b")
        b.submit(b.open_session("bob", now_ms=0.0), Q_LIGHT, now_ms=1.0)
        a.submit(a.open_session("alice", now_ms=0.0), Q_LIGHT, now_ms=2.0)
        a.flush(now_ms=3.0)
        b.flush(now_ms=4.0)
        _assert_recovers_its_qids(b, tmp_path / "b")


def test_a_rejected_submission_takes_no_qid(tmp_path):
    with scoped():
        service = _service(tmp_path / "s")
        sid = service.open_session("alice", now_ms=0.0)
        service.submit(sid, Q_LIGHT, now_ms=1.0)
        with pytest.raises(QueryValidationError):
            service.submit(sid, Q_INVALID, now_ms=2.0)
        service.flush(now_ms=3.0)
        _assert_recovers_its_qids(service, tmp_path / "s")
        assert service.optimizer.qids.next_value == 3  # user 1, synthetic 2
