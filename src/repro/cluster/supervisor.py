"""Failure detection and automatic restart for cluster shards.

:class:`ShardSupervisor` watches each shard of a
:class:`~repro.cluster.coordinator.ClusterCoordinator` with a
heartbeat/deadline failure detector and drives recovery without human
intervention, in the spirit of supervisor-driven high availability in
distributed stream systems:

* **detection** — every :meth:`poll` probes each shard (default probe:
  ``service.is_open`` plus a ``stats()`` round-trip); a shard failing
  probes for longer than ``deadline_ms`` is declared down and the
  coordinator starts routing around it (degraded-mode merge);
* **recovery** — restart attempts are paced by exponential backoff
  (``restart_backoff_ms`` doubling up to ``max_backoff_ms``, abandoning
  after ``max_restarts``).  Preference order: promote an attached
  :class:`~repro.service.replication.StandbyServer` replica, call a
  custom restarter, or :meth:`QueryService.recover` the shard's own WAL
  directory;
* **healing** — a successful restart is handed to
  :meth:`ClusterCoordinator.replace_shard_service`, which relinks
  anchors, heals lost subqueries, and drains queued terminates.

The supervisor is clock-agnostic: drive :meth:`poll` from a virtual
clock in tests and crash cells, or :meth:`start` a daemon thread for wall
time.  Incidents are recorded as :class:`ShardIncident` rows with
time-to-detect / time-to-recover, exported under the
``cluster.supervisor.*`` metric families (see docs/observability.md).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs import get_registry
from ..service import QueryService
from .coordinator import ClusterCoordinator


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-detector and restart pacing knobs (milliseconds)."""

    #: Probe cadence of the :meth:`ShardSupervisor.start` thread; pure
    #: :meth:`poll` callers pace themselves.
    heartbeat_interval_ms: float = 500.0
    #: How long a shard may fail probes before it is declared down.
    deadline_ms: float = 2000.0
    #: Delay before the first restart attempt of an incident.
    restart_backoff_ms: float = 250.0
    #: Backoff multiplier between consecutive failed attempts.
    backoff_factor: float = 2.0
    #: Backoff ceiling.
    max_backoff_ms: float = 8000.0
    #: Attempts before the incident is abandoned (operator escalation).
    max_restarts: int = 8


@dataclass
class ShardIncident:
    """One detected shard outage and what the supervisor did about it."""

    shard_id: int
    detected_ms: float
    #: Last successful probe before the failure.
    last_ok_ms: float
    recovered_ms: Optional[float] = None
    attempts: int = 0
    #: How recovery happened: ``promote`` (standby), ``restarter``
    #: (custom hook), ``recover`` (shard WAL), ``external``.
    mode: str = ""
    abandoned: bool = False

    @property
    def time_to_detect_ms(self) -> float:
        return self.detected_ms - self.last_ok_ms

    @property
    def time_to_recover_ms(self) -> Optional[float]:
        if self.recovered_ms is None:
            return None
        return self.recovered_ms - self.detected_ms


@dataclass
class _Watch:
    """Per-shard failure-detector state."""

    shard_id: int
    last_ok_ms: float
    incident: Optional[ShardIncident] = None
    next_attempt_ms: float = 0.0
    backoff_ms: float = 0.0


class ShardSupervisor:
    """Heartbeat failure detection + backoff restart for cluster shards.

    ``probes`` maps shard id to a zero-arg health callable (default
    probes the coordinator's current service in-process); ``restarters``
    maps shard id to a zero-arg callable returning a fresh
    :class:`QueryService` (e.g. respawning a child process);
    ``standbys`` maps shard id to an attached
    :class:`~repro.service.replication.StandbyServer` to promote first.
    ``durability_dir`` enables the default restart path:
    :meth:`QueryService.recover` on ``<durability_dir>/shard-NN``.
    """

    def __init__(self, coordinator: ClusterCoordinator, *,
                 config: Optional[SupervisorConfig] = None,
                 durability_dir: Optional[Union[str, Path]] = None,
                 probes: Optional[Dict[int, Callable[[], bool]]] = None,
                 restarters: Optional[
                     Dict[int, Callable[[], QueryService]]] = None,
                 standbys: Optional[Dict[int, object]] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.coordinator = coordinator
        self.config = config or SupervisorConfig()
        self.durability_dir = (Path(durability_dir)
                               if durability_dir is not None else None)
        self._probes = dict(probes or {})
        self._restarters = dict(restarters or {})
        self._standbys = dict(standbys or {})
        self._clock = clock
        self._lock = threading.RLock()
        now = self._now(None)
        self._watches: Dict[int, _Watch] = {
            shard_id: _Watch(shard_id=shard_id, last_ok_ms=now)
            for shard_id in range(coordinator.n_shards)}
        #: Closed incidents, oldest first (crash cells read these).
        self.incidents: List[ShardIncident] = []
        #: shard id -> the replacement service of the last recovery.
        self.recovered: Dict[int, QueryService] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        registry = get_registry()
        self._m_heartbeats = registry.counter(
            "cluster.supervisor.heartbeats_total",
            help="shard health probes run by the supervisor")
        self._m_failures = registry.counter(
            "cluster.supervisor.failures_detected_total",
            help="shard outages declared by the failure detector")
        self._m_restarts = registry.counter(
            "cluster.supervisor.restarts_total",
            help="successful shard restarts driven by the supervisor")
        self._m_promotions = registry.counter(
            "cluster.supervisor.promotions_total",
            help="standby replicas promoted to replace a dead shard")
        self._m_abandoned = registry.counter(
            "cluster.supervisor.abandoned_total",
            help="incidents abandoned after max_restarts attempts")
        self._h_detect = registry.histogram(
            "cluster.supervisor.time_to_detect_ms",
            help="probe-gap between last healthy heartbeat and detection",
            unit="ms")
        self._h_recover = registry.histogram(
            "cluster.supervisor.time_to_recover_ms",
            help="detection-to-heal latency of supervised restarts",
            unit="ms")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def _now(self, now_ms: Optional[float]) -> float:
        if now_ms is not None:
            return now_ms
        if self._clock is not None:
            return self._clock()
        return time.monotonic() * 1000.0

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _probe(self, shard_id: int) -> bool:
        probe = self._probes.get(shard_id)
        if probe is not None:
            try:
                return bool(probe())
            except Exception:
                return False
        service = self.coordinator.shard_services()[shard_id]
        try:
            if not service.is_open:
                return False
            service.stats()
            return True
        except Exception:
            return False

    # ------------------------------------------------------------------
    # The supervision loop body
    # ------------------------------------------------------------------
    def poll(self, now_ms: Optional[float] = None) -> List[ShardIncident]:
        """Run one failure-detection + recovery pass.

        Returns incidents *newly detected* by this poll (recoveries of
        older incidents show up in :attr:`incidents`).
        """
        with self._lock:
            now = self._now(now_ms)
            detected: List[ShardIncident] = []
            for shard_id in sorted(self._watches):
                watch = self._watches[shard_id]
                self._m_heartbeats.inc()
                if self._probe(shard_id):
                    if watch.incident is not None:
                        # Healed without us (e.g. replace_shard_service
                        # called directly) — close the incident.
                        self._close_incident(watch, now, mode="external")
                    watch.last_ok_ms = now
                    continue
                if watch.incident is None:
                    if now - watch.last_ok_ms < self.config.deadline_ms:
                        continue  # within the grace deadline
                    watch.incident = ShardIncident(
                        shard_id=shard_id, detected_ms=now,
                        last_ok_ms=watch.last_ok_ms)
                    watch.backoff_ms = self.config.restart_backoff_ms
                    watch.next_attempt_ms = now + watch.backoff_ms
                    self._m_failures.inc()
                    self._h_detect.observe(
                        watch.incident.time_to_detect_ms)
                    self.coordinator.mark_shard_down(shard_id)
                    detected.append(watch.incident)
                    continue
                incident = watch.incident
                if incident.abandoned or now < watch.next_attempt_ms:
                    continue
                incident.attempts += 1
                service = self._restart(shard_id)
                if service is not None:
                    self.recovered[shard_id] = service
                    self.coordinator.replace_shard_service(
                        shard_id, service)
                    self._m_restarts.inc()
                    self._close_incident(watch, now,
                                         mode=incident.mode or "recover")
                elif incident.attempts >= self.config.max_restarts:
                    # Escalate to the operator: record the incident but
                    # keep it open on the watch so the detector does not
                    # re-declare the same outage and restart the cycle.
                    # An external heal still closes it.
                    incident.abandoned = True
                    self._m_abandoned.inc()
                    self.incidents.append(incident)
                else:
                    watch.backoff_ms = min(
                        watch.backoff_ms * self.config.backoff_factor,
                        self.config.max_backoff_ms)
                    watch.next_attempt_ms = now + watch.backoff_ms
            return detected

    def _close_incident(self, watch: _Watch, now: float,
                        mode: str) -> None:
        incident = watch.incident
        assert incident is not None
        incident.recovered_ms = now
        if not incident.mode:
            incident.mode = mode
        self._h_recover.observe(incident.time_to_recover_ms)
        if not incident.abandoned:  # abandoned ones are already recorded
            self.incidents.append(incident)
        watch.incident = None
        watch.last_ok_ms = now
        watch.backoff_ms = 0.0

    def _restart(self, shard_id: int) -> Optional[QueryService]:
        """One restart attempt; ``None`` means try again after backoff."""
        watch = self._watches[shard_id]
        service: Optional[QueryService] = None
        try:
            standby = self._standbys.pop(shard_id, None)
            if standby is not None:
                backend = self.coordinator.shard_backends()[shard_id]
                service = standby.promote(
                    backend, clock=self.coordinator._clock)
                watch.incident.mode = "promote"
                self._m_promotions.inc()
            elif shard_id in self._restarters:
                service = self._restarters[shard_id]()
                watch.incident.mode = "restarter"
            elif self.durability_dir is not None:
                backend = self.coordinator.shard_backends()[shard_id]
                service = QueryService.recover(
                    backend,
                    self.durability_dir / f"shard-{shard_id:02d}",
                    clock=self.coordinator._clock)
                watch.incident.mode = "recover"
        except Exception:
            service = None
        return service

    # ------------------------------------------------------------------
    # Wall-clock supervision thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Poll from a daemon thread every ``heartbeat_interval_ms``."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _run() -> None:
            while not self._stop.wait(
                    self.config.heartbeat_interval_ms / 1000.0):
                self.poll()

        self._thread = threading.Thread(
            target=_run, name="shard-supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError(
                "shard-supervisor thread still running 5 s after stop()")
        self._thread = None
