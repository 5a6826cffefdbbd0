"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the single sink every instrumented layer records into —
the simulator's radio/MAC/node stack, the TinyDB base station, the tier-1
optimizer, the query service, and the sweep executor all emit metrics
here, under the names documented in ``docs/observability.md`` (the
telemetry contract: metric names are API).

Identity and determinism
------------------------
A metric *family* is a name plus a kind (counter/gauge/histogram), a unit,
and help text; a *series* is one family instantiated with a concrete label
set.  Series are keyed by ``(name, sorted(labels))``, so label order never
matters and snapshots iterate in a sorted, interpreter-independent order.
Nothing in this module reads the wall clock or draws randomness: a
registry filled from a deterministic simulation snapshots bit-identically
across processes, which is what lets the sweep executor keep its
serial/parallel equivalence guarantee while instrumented.

Scoping
-------
There is one module-level *current* registry (:func:`get_registry`).
Components capture it at construction time, so a caller that wants an
isolated view runs inside :func:`scoped`::

    with scoped() as registry:
        live = run_workload_live(Strategy.TTMQO, workload, config)
    print(render_text(registry.snapshot()))

Pushed and pulled series
------------------------
Most series are pushed: the component calls ``inc``/``set``/``observe``.
A component that already keeps the total for its own use lends it
instead — ``Gauge.set_fn``, ``Counter.add_part`` (a zero-argument
reader) and ``Histogram.add_part`` (a sample sequence) are read when the
series is, so nothing is copied per event.  Parts must hold only that
total, never the object that owns it, so a registry that outlives a run
does not keep the run alive.  An owner that keeps its counts in a
:class:`Counts` binds them with :func:`bind_counts`; a series shared by
several owners reads the sum of the bound ones, and :func:`unbind`
takes an owner out (a crashed process exports nothing).

Thread safety: family/series creation is locked; value updates are plain
attribute writes (atomic enough under the GIL for counters incremented
from one thread at a time — the service layer already serialises its
updates under its own lock, and the simulator is single-threaded).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from functools import partial, reduce
from itertools import chain
from operator import add
from typing import (Callable, Deque, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {q})")
    return _ranked(sorted(values), q)


def _ranked(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile of an already sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


class Counter:
    """A monotonically increasing total — incremented, or read from parts.

    :meth:`add_part` registers a zero-argument reader of a total its owner
    keeps anyway (the simulator's radio ledger); :attr:`value` is the
    incremented amount plus every part, summed when read, so the owner
    pays nothing per event.  Parts are summed in registration order.
    """

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0
        self._parts: List[Callable[[], float]] = []

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self._value += amount

    def add_part(self, reader: Callable[[], float]) -> None:
        self._parts.append(reader)

    def remove_part(self, reader: Callable[[], float]) -> None:
        self._parts.remove(reader)

    @property
    def value(self) -> float:
        value = self._value
        for part in self._parts:
            value += part()
        return value


class Counts:
    """Integer counters an owner increments and the registry reads.

    A subclass lists its fields in ``__slots__``; each starts at 0.
    :func:`bind_counts` lends them to registry series.
    """

    __slots__ = ()

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


#: One bound series: the counter and the part reading its owner's field.
Binding = Tuple[Counter, Callable[[], float]]


def bind_counts(registry: "MetricsRegistry", counts: Counts, table,
                **labels: object) -> List[Binding]:
    """Bind each ``(field, name, help, labels)`` row of ``table``: the
    series ``name`` with the row's labels plus ``labels`` reads
    ``counts.field``.  Returns the bindings, for :func:`unbind`."""
    bound: List[Binding] = []
    for field, name, help, extra in table:
        series = registry.counter(name, help=help, **extra, **labels)
        reader = partial(getattr, counts, field)
        series.add_part(reader)
        bound.append((series, reader))
    return bound


def unbind(bound: List[Binding]) -> None:
    """Detach every binding in ``bound`` from its series, emptying it."""
    for series, reader in bound:
        series.remove_part(reader)
    bound.clear()


class Gauge:
    """A value that goes up and down — set directly, or read on demand.

    :meth:`set_fn` registers a zero-argument callable evaluated at
    snapshot time, which keeps expensive readings (live query counts,
    modelled benefit) off the hot path entirely.
    """

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set_fn(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """A distribution: count/sum/min/max plus p50/p95 over retained samples.

    ``sample_cap`` bounds memory on long-running services by retaining
    only the most recent samples (count and sum still cover everything);
    ``None`` retains every observation, which is what deterministic
    simulation runs use.  A capped histogram evicts its oldest sample in
    O(1).

    :meth:`add_part` registers a sample sequence its owner keeps
    appending to (a list, or an ``array('d')`` at 8 bytes a sample);
    every read (``count``, ``sum``, ``summary()``, …) folds the parts in
    after the observations, in registration order, without copying them:
    ``count`` adds their lengths, ``sum`` adds their samples one at a
    time, as :meth:`observe` would have, and ``min``/``max`` scan each
    part.  Only ``quantile`` and ``summary()`` sort one copy.  Parts are
    retained in full and belong to their owner: ``state_dict`` covers
    observations only.
    """

    kind = "histogram"

    def __init__(self, sample_cap: Optional[int] = None) -> None:
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self.sample_cap = sample_cap
        self._samples: Deque[float] = deque(maxlen=sample_cap)
        self._parts: List[Sequence[float]] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if self._count == 0:
            self._min = self._max = value
        else:
            self._min = min(self._min, value)
            self._max = max(self._max, value)
        self._count += 1
        self._sum += value
        self._samples.append(value)

    def add_part(self, samples: Sequence[float]) -> None:
        self._parts.append(samples)

    def _bounds(self) -> Tuple[float, float]:
        """(min, max) over observations and parts."""
        lows, highs = ([self._min], [self._max]) if self._count else ([], [])
        for part in self._parts:
            if len(part):
                lows.append(min(part))
                highs.append(max(part))
        return (min(lows), max(highs)) if lows else (0.0, 0.0)

    @property
    def count(self) -> int:
        return self._count + sum(map(len, self._parts))

    @property
    def sum(self) -> float:
        return reduce(add, chain.from_iterable(self._parts), self._sum)

    @property
    def min(self) -> float:
        return self._bounds()[0]

    @property
    def max(self) -> float:
        return self._bounds()[1]

    @property
    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) over the retained samples."""
        return percentile(chain(self._samples, *self._parts), q)

    def summary(self) -> Dict[str, float]:
        count, total = self.count, self.sum
        low, high = self._bounds()
        ordered = sorted(chain(self._samples, *self._parts))
        return {
            "count": float(count),
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
            "p50": _ranked(ordered, 50.0),
            "p95": _ranked(ordered, 95.0),
        }

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe full state (service-tier snapshots); see ``load_state``."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "samples": list(self._samples),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict`, replacing current observations."""
        self._count = int(state["count"])
        self._sum = float(state["sum"])
        self._min = float(state["min"])
        self._max = float(state["max"])
        self._samples = deque(map(float, state["samples"]),
                              maxlen=self.sample_cap)


class _Family:
    """One metric name: its kind, metadata, and all label series."""

    def __init__(self, name: str, kind: str, help: str, unit: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.series: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Holds every metric family and hands out label series.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return the series
    for the given labels; re-registering a name with a different kind is
    an error (names are part of the telemetry contract).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- series access -------------------------------------------------
    def counter(self, name: str, help: str = "", unit: str = "",
                **labels: object) -> Counter:
        return self._series(name, "counter", help, unit, labels,
                            Counter)

    def gauge(self, name: str, help: str = "", unit: str = "",
              **labels: object) -> Gauge:
        return self._series(name, "gauge", help, unit, labels, Gauge)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  sample_cap: Optional[int] = None,
                  **labels: object) -> Histogram:
        return self._series(name, "histogram", help, unit, labels,
                            lambda: Histogram(sample_cap=sample_cap))

    def _series(self, name: str, kind: str, help: str, unit: str,
                labels: Dict[str, object], factory: Callable[[], object]):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, unit)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"cannot re-register as {kind}")
            else:
                if help and not family.help:
                    family.help = help
                if unit and not family.unit:
                    family.unit = unit
            metric = family.series.get(key)
            if metric is None:
                metric = factory()
                family.series[key] = metric
            return metric

    # -- introspection -------------------------------------------------
    def families(self) -> List[str]:
        """Sorted names of every registered metric family."""
        with self._lock:
            return sorted(self._families)

    def snapshot(self) -> List[Dict[str, object]]:
        """Every series as a plain JSON-safe dict, in sorted order.

        Counters and gauges carry ``value``; histograms carry the
        ``summary()`` dict.  The ordering — by (name, labels) — is
        deterministic regardless of registration order.
        """
        with self._lock:
            out: List[Dict[str, object]] = []
            for name in sorted(self._families):
                family = self._families[name]
                for key in sorted(family.series):
                    metric = family.series[key]
                    entry: Dict[str, object] = {
                        "name": name,
                        "kind": family.kind,
                        "unit": family.unit,
                        "help": family.help,
                        "labels": dict(key),
                    }
                    if isinstance(metric, Histogram):
                        entry.update(metric.summary())
                    else:
                        entry["value"] = metric.value  # type: ignore[union-attr]
                    out.append(entry)
            return out


# ----------------------------------------------------------------------
# The current registry
# ----------------------------------------------------------------------
_current = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-wide registry (what new components record into)."""
    return _current


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the current registry; returns the previous one."""
    global _current
    previous = _current
    _current = registry
    return previous


def reset_registry() -> MetricsRegistry:
    """Install a fresh empty registry (and return it)."""
    return set_registry(MetricsRegistry()) and _current


@contextmanager
def scoped(registry: Optional[MetricsRegistry] = None
           ) -> Iterator[MetricsRegistry]:
    """Run a block against an isolated (or supplied) registry.

    Components constructed inside the block record into it; the previous
    registry is restored on exit.  This is how one experiment cell gets
    its own clean metric view::

        with scoped() as reg:
            result = run_workload(...)
        snapshot = reg.snapshot()
    """
    registry = registry or MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
