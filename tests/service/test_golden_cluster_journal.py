"""Golden root journal: the cluster root's WAL and snapshot bytes, pinned.

``tests/data/golden_cluster_journal.json`` holds, for each of the two
uncrashed cluster scripts of ``test_journal_points`` (``CLUSTER_SCRIPT``
and ``CLUSTER_KINDS_SCRIPT``), every line the coordinator appended to its
root WAL and every root snapshot it saved, in order, as the bytes on disk.
The journal-point suite compares recovered state against the same code's
uncrashed run; this file is what pins the record format itself, so a
directory written before a change still recovers after it.

Regenerate deliberately with:

    PYTHONPATH=src python -m tests.service.test_golden_cluster_journal
"""

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cluster.coordinator import ROOT_DIR_NAME
from repro.obs import scoped
from repro.service import durability

from .test_journal_points import (
    CLUSTER_KINDS_SCRIPT,
    CLUSTER_SCRIPT,
    _cluster_apply,
    _new_cluster,
)

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "data"
               / "golden_cluster_journal.json")
SCRIPTS = {"cluster_script": CLUSTER_SCRIPT,
           "record_kinds_script": CLUSTER_KINDS_SCRIPT}


@contextmanager
def _root_writes():
    """Collect each root WAL line and root snapshot as written to disk."""
    writes = {"wal": [], "snapshots": []}
    wal_class, store = durability.WriteAheadLog, durability.SnapshotStore
    append, save = wal_class.append, store.save

    def logged_append(wal, record):
        append(wal, record)
        if wal.path.parent.name == ROOT_DIR_NAME:
            writes["wal"].append(
                wal.path.read_text(encoding="utf-8").splitlines()[-1])

    def logged_save(path, state, **kwargs):
        save(path, state, **kwargs)
        if Path(path).parent.name == ROOT_DIR_NAME:
            writes["snapshots"].append(
                Path(path).read_text(encoding="utf-8"))

    wal_class.append, store.save = logged_append, staticmethod(logged_save)
    try:
        yield writes
    finally:
        wal_class.append, store.save = append, staticmethod(save)


def journal_writes():
    """Each script's root writes, as the golden file holds them."""
    result = {}
    for name, script in SCRIPTS.items():
        with tempfile.TemporaryDirectory() as tmp, scoped():
            with _root_writes() as writes:
                coordinator = _new_cluster(Path(tmp) / "cluster")
                apply = _cluster_apply(coordinator)
                for index, op in enumerate(script):
                    apply(op, index)
                for service in coordinator.shard_services():
                    service.simulate_crash()
                coordinator.simulate_crash()
        result[name] = writes
    return result


@pytest.fixture(scope="module")
def written():
    return journal_writes()


def test_root_journal_bytes_match_the_golden(written):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(written) == set(golden)
    for name in SCRIPTS:
        assert written[name]["wal"] == golden[name]["wal"], name
        assert written[name]["snapshots"] == golden[name]["snapshots"], name


def test_the_scripts_write_every_record_kind_a_fresh_root_writes(written):
    """Vacuity: every kind but the two no uncrashed script can write.

    ``fanout_sub`` is written only by shard healing
    (``tests/cluster/test_coordinator.py::TestRecovery`` covers it), and
    ``abort_orphans`` only when an anchor has no live ticket, which no
    sequence of operations on a fresh coordinator produces (the orphan
    directory cases of the same class cover it).
    """
    kinds = {json.loads(line.split(" ", 1)[1])["op"]
             for writes in written.values() for line in writes["wal"]}
    assert kinds == {"boot", "open", "renew", "close", "expire",
                     "shard_session", "root_session", "submit", "terminate",
                     "shutdown"}
    assert all(writes["snapshots"] for writes in written.values())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(journal_writes(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
