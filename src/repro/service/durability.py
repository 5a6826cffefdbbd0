"""Crash durability: one journal (write-ahead log + snapshots).

The base station is the single point the whole two-tier architecture
funnels through (Section 3.1): losing it loses every session lease,
ticket, cache refcount, and — worst — the optimizer's query table with
its synthetic merges, leaving zombie queries sampling the network with
nobody to answer to; the cluster root funnels the tier above it.  Both
recover through one :class:`Journal` per durability directory:

* **boot** refuses a directory that already holds state, then writes the
  *boot record* (the owner's config).  It carries no ``seq`` and does not
  count toward ``snapshot_every_ops``;
* **append** stamps every other record with a monotone ``seq`` (never
  reset by rotation), counts it, and hands it to an optional listener;
* **checkpoint** saves the snapshot (high-water ``seq`` as ``op_seq``),
  *then* rotates the WAL, *then* resets the count;
* **replay** (:meth:`Journal.load`, :meth:`Backlog.replay`) skips the
  boot record and counts records with ``seq <= op_seq`` as *stale* —
  a crash between save and rotation left them beside the snapshot that
  holds them — without re-applying them.  Recovery ends with one
  checkpoint.

Owners keep only policy: :class:`~repro.service.service.QueryService`
logs write-ahead at its outermost operation; the
:class:`~repro.cluster.coordinator.ClusterCoordinator` root journals
after the shard effects (journal point = acknowledgement point); the
warm standby (``service/replication.py``) writes the records its primary
stamped unchanged and checkpoints when the primary does.

File formats (documented in ``docs/observability.md``)
------------------------------------------------------
``wal.jsonl``
    One record per line: ``<crc32-hex-8> <canonical-json>``.  The CRC is
    ``zlib.crc32`` over the UTF-8 canonical JSON (sorted keys, compact
    separators).  Replay stops at the first line that fails to frame,
    parse, or checksum — a torn tail from a crash mid-append is *ignored*
    (counted in ``resilience.wal_torn_records_total``), never an error.

``snapshot.json``
    A single JSON document written atomically (temp file + fsync +
    ``os.replace``), so a crash mid-snapshot leaves the previous snapshot
    intact.

Flush tiers
-----------
Service and shard directories follow :attr:`DurabilityConfig.fsync`.
The cluster root flushes its WAL to the OS only (process-crash
durability) and fsyncs its directory after every snapshot rename.

Replay determinism
------------------
A service's user qids and its optimizer's synthetic qids come from one
allocator, the optimizer's own (:class:`repro.queries.ast.QidAllocator`).
WAL ``submit`` records carry the issued qid; replay submits under it and
moves the allocator past it, so the optimizer re-derives the exact same
synthetic qids and table state as the crashed process.  The snapshot and
the boot record hold the allocator's next value.  Other services in the
process cannot move it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

#: WAL / snapshot file names inside a durability directory.
WAL_FILENAME = "wal.jsonl"
SNAPSHOT_FILENAME = "snapshot.json"

#: Bump when the snapshot/WAL schema changes incompatibly.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DurabilityConfig:
    """Where and how eagerly a :class:`Journal` persists its owner's state.

    ``snapshot_every_ops = 0`` disables automatic snapshots (the WAL alone
    still recovers everything, just with a longer replay).  ``fsync``
    controls whether every WAL append — and the directory metadata behind
    WAL creation/rotation and snapshot renames (:func:`_fsync_dir`) — is
    forced to stable storage; the default only flushes to the OS, which
    survives process crashes (the crash tests' model) but not power
    loss.
    """

    directory: str
    snapshot_every_ops: int = 0
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every_ops < 0:
            raise ValueError(
                f"snapshot_every_ops must be >= 0 "
                f"(got {self.snapshot_every_ops})")

    @property
    def wal_path(self) -> Path:
        return Path(self.directory) / WAL_FILENAME

    @property
    def snapshot_path(self) -> Path:
        return Path(self.directory) / SNAPSHOT_FILENAME


def _fsync_dir(path) -> None:
    """fsync a *directory*, making renames/creates/truncates power-safe.

    ``os.replace`` and ``open(..., "w")`` update the parent directory's
    entry table, and that metadata has its own journey to stable storage:
    fsyncing only the file leaves a window where power loss forgets the
    rename (losing an "atomic" snapshot) or resurrects a rotated WAL next
    to a newer snapshot.  Platforms whose directories cannot be opened or
    fsynced (Windows raises ``PermissionError``/``OSError``) get a no-op —
    the same crash-consistency they had before.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _frame(record: dict) -> str:
    """One WAL line: crc32 over the canonical JSON, then the JSON."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def _unframe(line: str) -> Optional[dict]:
    """Decode one WAL line; ``None`` for torn/corrupt records."""
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog:
    """Append-only JSON-lines log with per-record CRC framing."""

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.records_appended = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._fh = open(self.path, "a", encoding="utf-8")
        if self.fsync and created:
            # The file's directory entry must reach stable storage too, or
            # a power loss can forget the log existed at all.
            _fsync_dir(self.path.parent)

    def append(self, record: dict) -> None:
        """Durably append one record (write-ahead: call before applying)."""
        self._fh.write(_frame(record))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.records_appended += 1

    def rotate(self) -> None:
        """Truncate the log (its contents are covered by a new snapshot)."""
        self._fh.close()
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
            # Without the directory fsync, power loss can resurrect the
            # pre-rotation WAL next to the newer snapshot that covers it —
            # replaying already-snapshotted operations on recovery.
            _fsync_dir(self.path.parent)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @staticmethod
    def load(path) -> Tuple[List[dict], int]:
        """Read ``(records, torn)`` from a WAL file.

        Replay stops at the first undecodable record: everything after a
        torn write is unreachable anyway (the crashed process appended
        strictly in order), and counting it as data would resurrect a
        half-written operation.  ``torn`` is the number of discarded
        trailing lines (0 for a clean log or a missing file) — callers
        surface it through :class:`RecoveryReport` and the
        ``resilience.wal_torn_records_total`` counter rather than
        silently discarding.

        The file is streamed line by line: a long-lived service that
        never snapshots accumulates a WAL far larger than memory, and
        recovery must not slurp it whole.
        """
        path = Path(path)
        if not path.exists():
            return [], 0
        records: List[dict] = []
        torn = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                if torn:
                    torn += 1  # count, never decode, past the first tear
                    continue
                record = _unframe(line)
                if record is None:
                    torn = 1
                    continue
                records.append(record)
        return records, torn


class SnapshotStore:
    """Atomic single-document snapshot persistence."""

    @staticmethod
    def save(path, state: dict, *, fsync_dir: bool = True) -> None:
        """Write ``state`` atomically: encode once, write the temp file,
        fsync, rename.

        ``fsync_dir`` additionally forces the parent directory's entry
        table to stable storage after the rename — without it the rename
        is atomic against process crashes but not power loss, which can
        forget the replace ever happened.  :class:`Journal` passes its
        :attr:`DurabilityConfig.fsync` here, so the power-safety tier is
        one knob for WAL and snapshots alike.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        # ``json.dumps`` runs the C encoder; ``json.dump`` would stream the
        # same bytes through the pure-Python one, chunk by chunk.
        document = json.dumps(state, sort_keys=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(document)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync_dir:
            _fsync_dir(path.parent)

    @staticmethod
    def load(path) -> Optional[dict]:
        """The snapshot document, or ``None`` when no snapshot exists.

        A snapshot that exists but does not parse raises ``ValueError``:
        writes are atomic, so corruption means external damage, and
        silently recovering a near-empty state would *look* like success
        while losing everything the snapshot covered (the WAL was rotated
        when it was written).
        """
        path = Path(path)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"snapshot {path} is corrupt ({exc}); snapshot writes "
                    f"are atomic, so this indicates external damage — "
                    f"refusing to silently recover a partial state") from exc


@dataclass
class RecoveryReport:
    """What one recovery (service, shard or cluster root) did."""

    snapshot_loaded: bool = False
    wal_records: int = 0
    replayed_ops: int = 0
    torn_records: int = 0
    #: WAL records skipped because the snapshot already contained them —
    #: the crash landed between :meth:`SnapshotStore.save` and
    #: :meth:`WriteAheadLog.rotate`, leaving a newer snapshot beside a
    #: stale (unrotated) log.  Skipping keeps replay idempotent.
    stale_ops: int = 0
    #: Replayed operations that raised — exactly as they did in the
    #: original process (e.g. a submit against an already-expired
    #: session); the exception *is* the replayed behavior.
    replay_errors: int = 0
    #: Synthetic queries re-disseminated to the network because the
    #: recovered table says RUNNING but the network wasn't running them.
    reinjected: int = 0
    #: Network queries aborted because the recovered table no longer
    #: knows them (zombies from operations lost with the crash).
    zombies_aborted: int = 0


@dataclass
class Backlog:
    """A durability directory as recovery finds it (:meth:`Journal.load`)."""

    snapshot: Optional[dict]
    records: List[dict]
    torn: int

    @property
    def boot(self) -> Optional[dict]:
        """The boot record, while no snapshot has rotated it away."""
        return next((r for r in self.records if r.get("op") == "boot"),
                    None)

    def replay(self, apply: Callable[[dict], None]
               ) -> Tuple[RecoveryReport, int]:
        """Apply the live records in order (boot skipped, stale counted,
        errors counted); returns ``(report, high-water seq)``."""
        snapshot_seq = int((self.snapshot or {}).get("op_seq", 0))
        report = RecoveryReport(snapshot_loaded=self.snapshot is not None,
                                wal_records=len(self.records),
                                torn_records=self.torn)
        high_seq = snapshot_seq
        for record in self.records:
            if record.get("op") == "boot":
                continue
            seq = record.get("seq")
            if seq is not None and seq <= snapshot_seq:
                report.stale_ops += 1
                continue
            report.replayed_ops += 1
            try:
                apply(record)
            except Exception:  # noqa: BLE001 - the original raised too
                report.replay_errors += 1
            if seq is not None and seq > high_seq:
                high_seq = seq
        return report, high_seq


class Journal:
    """The WAL → snapshot → replay protocol of one durability directory.

    ``seq`` is the high-water stamp, ``pending`` the records since the
    last checkpoint; ``listener`` (a replicator) sees every stamped record
    and snapshot in order.  ``snapshot_dir_fsync`` overrides
    :attr:`DurabilityConfig.fsync` for the post-rename directory fsync
    (the cluster root's fixed tier).
    """

    def __init__(self, config: DurabilityConfig, *, seq: int = 0,
                 snapshot_dir_fsync: Optional[bool] = None) -> None:
        self.config = config
        self.seq = seq
        self.pending = 0
        self.listener = None
        self._snapshot_dir_fsync = (config.fsync if snapshot_dir_fsync is None
                                    else snapshot_dir_fsync)
        self._wal = WriteAheadLog(config.wal_path, fsync=config.fsync)

    @classmethod
    def boot(cls, config: DurabilityConfig, record: dict,
             **kwargs) -> "Journal":
        """A first boot: refuse a directory holding state, log ``record``."""
        if config.snapshot_path.exists() or (
                config.wal_path.exists()
                and config.wal_path.stat().st_size > 0):
            raise ValueError(
                f"durability directory {config.directory!r} already holds "
                f"state; use recover() to reopen it")
        journal = cls(config, **kwargs)
        journal.write(record)
        return journal

    @staticmethod
    def load(config: DurabilityConfig) -> Backlog:
        """Read the snapshot and the WAL records beside it."""
        snapshot = SnapshotStore.load(config.snapshot_path)
        records, torn = WriteAheadLog.load(config.wal_path)
        return Backlog(snapshot, records, torn)

    def write(self, record: dict) -> None:
        """Log ``record`` unchanged: a boot record, or a standby's copy of
        one its primary already stamped."""
        self._wal.append(record)

    def append(self, record: dict) -> None:
        """Stamp, log, count and publish one record."""
        self.seq += 1
        record = dict(record, seq=self.seq)
        self._wal.append(record)
        self.pending += 1
        if self.listener is not None:
            self.listener.on_wal_append(record)

    def due(self) -> bool:
        """Whether ``snapshot_every_ops`` records await a checkpoint."""
        every = self.config.snapshot_every_ops
        return every > 0 and self.pending >= every

    def checkpoint(self, state: dict) -> None:
        """Save ``state``, then rotate the WAL, then reset the count.

        The order is the recovery-point rule: a crash after the save
        leaves a snapshot beside a stale WAL, which replay skips.
        """
        SnapshotStore.save(self.config.snapshot_path, state,
                           fsync_dir=self._snapshot_dir_fsync)
        self._wal.rotate()
        self.pending = 0
        if self.listener is not None:
            self.listener.on_snapshot(state)

    def close(self) -> None:
        self._wal.close()
