"""Parallel sweep executor with deterministic on-disk result caching.

Fans a grid of experiment cells (:mod:`repro.harness.cells`) across CPU
cores with :class:`concurrent.futures.ProcessPoolExecutor` while keeping
the serial semantics **bit-identical**: a cell's result depends only on its
spec, never on worker count, scheduling order, or which process ran it.

Determinism contract
--------------------
* every cell runs inside :func:`repro.queries.ast.fresh_qids`, so query
  construction is identical in a fresh worker and a long-lived process;
* per-cell seeds derive from a SHA-256 of the canonical cell spec
  (:func:`repro.harness.cells.derive_seed`), never from ``hash()`` or grid
  position;
* worker processes use the ``spawn`` start method by default: each worker
  is a fresh interpreter, which is exactly the environment the
  cross-process determinism tests pin down.

Cache layout
------------
``<cache_dir>/<key[:2]>/<key>.json`` where ``key = SHA-256(canonical spec
JSON + code fingerprint)``.  The fingerprint hashes every ``repro`` source
file, so *any* code change invalidates the whole cache (misses, never wrong
answers).  Each entry stores the result payload plus the spec and metadata
for human inspection; entries are written atomically (tmp file + rename) so
concurrent sweeps sharing a cache directory never read torn JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import repro

from .cells import (
    AnyCell,
    AnyResult,
    CellSpec,
    canonical_cell_dict,
    cell_key,
)
from .metrics import SweepTelemetry
from .runner import DEFAULT_DRAIN_MS, RunResult
from .tier1_sim import Tier1RunStats

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    This is the cache's code-invalidation token: results are only reused
    while the simulator that produced them is byte-identical.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of completed cell results."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached entry for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, entry: dict) -> None:
        """Atomically persist ``entry`` under ``key`` (write + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def _result_to_payload(result: AnyResult) -> dict:
    if isinstance(result, RunResult):
        return {"kind": "packet", "data": result.to_dict()}
    if isinstance(result, Tier1RunStats):
        from dataclasses import asdict
        return {"kind": "tier1", "data": asdict(result)}
    raise TypeError(f"unknown result type {type(result).__name__}")


def _result_from_payload(payload: dict) -> AnyResult:
    if payload["kind"] == "packet":
        return RunResult.from_dict(payload["data"])
    if payload["kind"] == "tier1":
        return Tier1RunStats(**payload["data"])
    raise ValueError(f"unknown cached result kind {payload['kind']!r}")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def usable_cores() -> int:
    """CPU cores this process may actually run on.

    ``os.cpu_count()`` over-reports under CPU affinity masks and
    container quotas, which is how the executor previously ended up
    spawning more workers than cores and *losing* to the serial path
    (pool setup + pickling with zero real parallelism).  Prefer the
    scheduler's own answer when the platform exposes it.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        count = getter()
        if count:
            return count
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int], n_cells: int) -> int:
    """The effective worker count for a sweep of ``n_cells`` misses.

    ``None`` auto-sizes to ``min(n_cells, usable_cores())``; an explicit
    count is clamped to ``n_cells`` (extra workers would sit idle).  The
    result is what the pool would use — the caller runs serially when it
    comes out <= 1.
    """
    if n_cells <= 0:
        return 1
    if workers is None:
        return max(1, min(n_cells, usable_cores()))
    return max(1, min(workers, n_cells))


def _execute_cell(spec: AnyCell):
    """Worker entry point: run one cell, time it.  Must stay picklable."""
    started = time.perf_counter()
    result = spec.run()
    duration = time.perf_counter() - started
    return result, duration, os.getpid()


@dataclass
class CellResult:
    """One completed cell: its spec, identity, result, and provenance."""

    spec: AnyCell
    key: str
    seed: int
    result: AnyResult
    duration_s: float
    cached: bool
    worker_pid: int


@dataclass
class SweepReport:
    """Everything a sweep produced, in the order cells were submitted."""

    cells: List[CellResult]
    telemetry: SweepTelemetry
    fingerprint: str = ""

    def results(self) -> List[AnyResult]:
        """The per-cell results, in the sweep's canonical cell order."""
        return [cell.result for cell in self.cells]


ProgressCallback = Callable[[CellResult, SweepTelemetry], None]


def run_sweep(
    specs: Sequence[AnyCell],
    workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    mp_context: str = "spawn",
    progress: Optional[ProgressCallback] = None,
) -> SweepReport:
    """Run a grid of cells, optionally in parallel and/or cached.

    Parameters
    ----------
    specs:
        The cells to run.  Order is preserved in the report; it never
        affects any cell's seed or result.
    workers:
        ``None`` (the default) auto-sizes to ``min(cells, usable
        cores)`` — see :func:`resolve_workers`.  ``0`` or ``1`` forces
        the serial in-process path (no pool, no pickling); ``n > 1``
        fans misses across at most ``n`` worker processes.  Whenever the
        effective count is 1 (single core, single pending cell) the pool
        is bypassed entirely — a one-worker pool only adds spawn and
        pickling overhead over running in-process.
    cache_dir:
        Enable the on-disk cache rooted here; ``None`` disables caching.
    mp_context:
        Multiprocessing start method for the pool (``spawn`` by default:
        fresh interpreters, the strictest determinism environment).
    progress:
        Called once per completed cell — in completion order — with the
        :class:`CellResult` and the live telemetry.
    """
    started = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    fingerprint = code_fingerprint()
    telemetry = SweepTelemetry(total_cells=len(specs), workers=1)
    slots: List[Optional[CellResult]] = [None] * len(specs)
    pending: List[int] = []  # indices that missed the cache

    def _finish(index: int, cell: CellResult) -> None:
        slots[index] = cell
        if cell.cached:
            telemetry.cache_hits += 1
        else:
            telemetry.cache_misses += 1
            telemetry.cell_seconds.append(cell.duration_s)
        telemetry.wall_s = time.perf_counter() - started
        if progress is not None:
            progress(cell, telemetry)

    keys = [cell_key(spec, fingerprint) for spec in specs]
    for index, (spec, key) in enumerate(zip(specs, keys)):
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            _finish(index, CellResult(
                spec=spec, key=key, seed=entry.get("seed", 0),
                result=_result_from_payload(entry["result"]),
                duration_s=entry.get("duration_s", 0.0),
                cached=True, worker_pid=os.getpid()))
        else:
            pending.append(index)

    def _record_fresh(index: int, result: AnyResult, duration: float,
                      pid: int) -> None:
        spec, key = specs[index], keys[index]
        seed = spec.resolved_seed()
        if cache is not None:
            cache.put(key, {
                "result": _result_to_payload(result),
                "seed": seed,
                "duration_s": duration,
                "fingerprint": fingerprint,
                "spec": canonical_cell_dict(spec),
            })
        _finish(index, CellResult(spec=spec, key=key, seed=seed,
                                  result=result, duration_s=duration,
                                  cached=False, worker_pid=pid))

    effective = (resolve_workers(workers, len(pending))
                 if workers is None else max(workers, 1))
    telemetry.workers = effective if pending else 1
    if pending and min(effective, len(pending)) <= 1:
        telemetry.workers = 1
        for index in pending:
            result, duration, pid = _execute_cell(specs[index])
            _record_fresh(index, result, duration, pid)
    elif pending:
        # Only a sweep that starts workers pays for the pool's imports.
        import concurrent.futures
        import multiprocessing

        context = multiprocessing.get_context(mp_context)
        max_workers = min(effective, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers, mp_context=context) as pool:
            futures = {pool.submit(_execute_cell, specs[index]): index
                       for index in pending}
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                result, duration, pid = future.result()
                _record_fresh(index, result, duration, pid)

    telemetry.wall_s = time.perf_counter() - started
    # Fold the finished telemetry into the current metrics registry, so a
    # sweep exports the same ``sweep.*`` schema whether it ran serially or
    # across a pool (see docs/observability.md).
    telemetry.export()
    return SweepReport(cells=[c for c in slots if c is not None],
                       telemetry=telemetry, fingerprint=fingerprint)


def grid(strategies: Sequence, workloads: Sequence, configs: Sequence,
         seeds: Sequence[Optional[int]] = (None,),
         drain_ms: Optional[float] = None) -> List[CellSpec]:
    """The cartesian (strategy x workload x config x seed) cell grid.

    A convenience for sweep scripts; cells are emitted in a fixed
    deterministic order, but since seeds derive from specs, any
    permutation of the returned list runs identically.
    """
    cells = []
    for workload in workloads:
        for config in configs:
            for strategy in strategies:
                for seed in seeds:
                    cells.append(CellSpec(
                        strategy=strategy, workload=workload, config=config,
                        seed=seed,
                        drain_ms=DEFAULT_DRAIN_MS if drain_ms is None
                        else drain_ms))
    return cells
