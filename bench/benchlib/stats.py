"""Percentiles, digests and the host block shared by every workload."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from typing import Dict, List, Sequence

from repro.harness.parallel import usable_cores

from .base import BENCH_DIR


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 with no samples.

    The benchmark's own, so that its arithmetic cannot move with the
    program's ``repro.harness.percentile``.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p99_supported(n_samples: int) -> bool:
    """A p99 is reported as such only with ten samples beyond it."""
    return n_samples * 0.01 >= 10


class Digest:
    """Order-sensitive SHA-256 over the ``repr`` of what is fed in."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        self._h.update(repr(parts).encode("utf-8"))

    def hex(self) -> str:
        return self._h.hexdigest()


def item_key(item) -> tuple:
    """A delivered ``MappedRow``/``MappedAggregates`` as plain data."""
    origin = getattr(item, "origin", None)
    if origin is not None:
        return ("row", item.epoch_time, origin, sorted(item.values.items()))
    return ("agg", item.epoch_time, tuple(item.group_key),
            sorted((agg.op.value, agg.attribute, value)
                   for agg, value in item.values.items()))


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR.parent, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.decode("ascii", "replace").strip()


def host_block() -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "gc_policy": "gc enabled; gc.collect() before every set-up and "
                     "before every timed region",
    }


def loadavg() -> List[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []
