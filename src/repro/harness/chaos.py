"""Chaos harness: crash/restart injection for the durable service tier.

Two crash modes over :mod:`repro.service.durability`:

* **In-process drops** (:class:`ChaosCellSpec`) — a scripted multi-client
  load runs against a :class:`~repro.service.QueryService` fronting a full
  packet-level TTMQO deployment; at a seeded simulated instant the service
  object "dies" (:meth:`~repro.service.QueryService.simulate_crash`: WAL
  handle released, nothing flushed or terminated) while the sensor network
  keeps running.  The base station is then rebuilt with
  :meth:`~repro.service.QueryService.recover`, which replays the WAL and
  reconciles the network.  The cell asserts the recovery invariants:

  - **state parity** — the recovered service's full durable state
    (sessions, tickets, cache refcounts, batch window, counters, breaker,
    the whole tier-1 query table) equals the pre-crash state bit for bit,
    *except* the results-delivered counter: per-ticket delivery dedup is
    deliberately volatile (at-least-once semantics), so deliveries since
    the last snapshot are re-fanned-out, never silently lost;
  - **no zombies** — after reconciliation the network runs exactly the
    synthetic queries the recovered table flags RUNNING;
  - **refcount consistency** — :meth:`QueryService.validate` holds;
  - **bounded data loss** — end-of-run row completeness stays within a
    configured bound of an identically-seeded no-crash twin run.

* **SIGKILL** (:func:`run_sigkill_crash`) — a real child process drives a
  WAL-backed service over a network-free :class:`OptimizerBackend` and is
  killed mid-operation; the parent recovers the directory (tolerating a
  torn WAL tail), checks invariants, and recovers it a *second* time to
  prove recovery is idempotent.

``python -m repro chaos`` sweeps the (loss rate x crash instant) grid on
the parallel executor; ``benchmarks/test_ext_resilience.py`` emits
``BENCH_service_resilience.json`` from the same cells.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..service.durability import WAL_FILENAME, DurabilityConfig
from ..service.service import OptimizerBackend, QueryService, TicketStatus
from ..sim import RadioParams
from .cells import derive_seed
from .strategies import Deployment, DeploymentConfig, Strategy

#: Distinct questions the scripted chaos clients draw from (cycled).
_QUERY_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors WHERE temp > 15 EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT MIN(temp) FROM sensors WHERE light > 200 EPOCH DURATION 8192",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
)


def _variant(text: str, rng: random.Random) -> str:
    """A canonicalization-equivalent textual variant of ``text``."""
    choice = rng.random()
    if choice < 0.3:
        return text.lower()
    if choice < 0.5:
        return text.replace("EPOCH DURATION", "SAMPLE PERIOD")
    return text


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ChaosRunStats:
    """Outcome of one chaos cell (JSON-safe; cached by the executor)."""

    crashed: bool
    #: Recovered state == pre-crash state (delivered counter excluded).
    parity_ok: bool
    parity_failures: List[str]
    #: Network queries not in the recovered table, after reconciliation.
    zombies_after_recovery: int
    #: QueryService.validate() held on the recovered instance.
    refcounts_ok: bool
    completeness_crash: float
    completeness_baseline: float
    #: baseline - crash (positive = the crash cost rows).
    completeness_gap: float
    completeness_bound: float
    within_bound: bool
    wal_records: int
    replayed_ops: int
    torn_records: int
    reinjected: int
    zombies_aborted: int
    snapshots: int
    admitted: int
    shed: int
    sessions_opened: int
    delivered_crash: int
    delivered_baseline: int

    @property
    def ok(self) -> bool:
        """Every recovery invariant held for this cell."""
        return (self.parity_ok and self.refcounts_ok
                and self.zombies_after_recovery == 0 and self.within_bound)


@dataclass
class _DriveOutcome:
    """Internal: what one scripted run (crash or baseline) produced."""

    completeness: float = 1.0
    delivered: int = 0
    admitted: int = 0
    shed: int = 0
    sessions_opened: int = 0
    parity_failures: List[str] = field(default_factory=list)
    zombies_after: int = 0
    refcounts_ok: bool = True
    wal_records: int = 0
    replayed_ops: int = 0
    torn_records: int = 0
    reinjected: int = 0
    zombies_aborted: int = 0
    snapshots: int = 0


# ----------------------------------------------------------------------
# In-process crash cells
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class ChaosCellSpec:
    """One (loss rate x crash instant) chaos experiment.

    ``crash_fraction`` places the crash at that fraction of the simulated
    horizon; ``0`` disables the crash (the cell degenerates to its own
    baseline, useful as a sweep control row).  Seeds derive from the spec
    hash exactly like every other cell kind, so results are independent of
    grid position and worker process.
    """

    loss_rate: float = 0.0
    crash_fraction: float = 0.5
    n_clients: int = 18
    n_unique: int = 5
    side: int = 4
    duration_s: float = 30.0
    batch_window_ms: float = 256.0
    snapshot_every_ops: int = 8
    completeness_bound: float = 0.25
    seed: Optional[int] = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self)

    def run(self) -> ChaosRunStats:
        """Run the crash cell and its no-crash twin; compare."""
        baseline = _drive(self, crash=False)
        if self.crash_fraction > 0:
            crashed = _drive(self, crash=True)
        else:
            crashed = baseline
        gap = baseline.completeness - crashed.completeness
        return ChaosRunStats(
            crashed=self.crash_fraction > 0,
            parity_ok=not crashed.parity_failures,
            parity_failures=list(crashed.parity_failures),
            zombies_after_recovery=crashed.zombies_after,
            refcounts_ok=crashed.refcounts_ok,
            completeness_crash=crashed.completeness,
            completeness_baseline=baseline.completeness,
            completeness_gap=gap,
            completeness_bound=self.completeness_bound,
            within_bound=gap <= self.completeness_bound,
            wal_records=crashed.wal_records,
            replayed_ops=crashed.replayed_ops,
            torn_records=crashed.torn_records,
            reinjected=crashed.reinjected,
            zombies_aborted=crashed.zombies_aborted,
            snapshots=crashed.snapshots,
            admitted=crashed.admitted,
            shed=crashed.shed,
            sessions_opened=crashed.sessions_opened,
            delivered_crash=crashed.delivered,
            delivered_baseline=baseline.delivered,
        )


def _durable_state(service: QueryService, now: float) -> dict:
    """The service's full durable state, minus the volatile bits.

    ``saved_ms`` is the capture instant and the delivered counter is
    at-least-once by design (delivery dedup state dies with the process),
    so both are excluded from the parity comparison.
    """
    state = service._snapshot_state(now)
    state.pop("saved_ms", None)
    state["counters"].pop("delivered", None)
    return state


def _diff_keys(pre: dict, post: dict) -> List[str]:
    """Top-level keys of the durable state that differ, for the report."""
    failures = []
    for key in sorted(set(pre) | set(post)):
        if pre.get(key) != post.get(key):
            failures.append(f"{key}: pre={pre.get(key)!r} "
                            f"post={post.get(key)!r}")
    return failures


def _zombie_count(deployment: Deployment) -> int:
    """Network queries the tier-1 table no longer flags RUNNING."""
    from ..core.basestation.query_table import SyntheticStatus
    table = deployment.optimizer.table
    wanted = {record.qid for record in table.synthetic.values()
              if record.flag is SyntheticStatus.RUNNING}
    return len(set(deployment.bs.running_queries()) - wanted)


def _drive(spec: ChaosCellSpec, crash: bool) -> _DriveOutcome:
    """Run the scripted load once, crashing mid-run when asked."""
    seed = spec.resolved_seed()
    duration_ms = spec.duration_s * 1000.0
    outcome = _DriveOutcome()
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        config = DeploymentConfig(
            side=spec.side, seed=seed,
            radio_params=(RadioParams(loss_rate=spec.loss_rate)
                          if spec.loss_rate else None))
        deployment = Deployment(Strategy.TTMQO, config)
        sim = deployment.sim
        durability = DurabilityConfig(
            directory=state_dir,
            snapshot_every_ops=spec.snapshot_every_ops)
        service = QueryService(
            deployment, batch_window_ms=spec.batch_window_ms,
            default_ttl_ms=duration_ms * 10.0,
            clock=lambda: sim.now, durability=durability)
        # The crash replaces the live service mid-run; every scheduled
        # callback goes through the holder so post-crash events land
        # on the recovered instance.
        holder = {"service": service}
        clients: List[Tuple[str, int]] = []
        rng = random.Random(seed ^ 0xC4A05)

        def _connect(index: int) -> None:
            svc = holder["service"]
            text = _variant(_QUERY_POOL[index % spec.n_unique], rng)
            session_id = svc.open_session(f"client-{index:03d}")
            ticket = svc.submit(session_id, text)
            svc.subscribe(session_id, ticket.ticket_id)
            clients.append((session_id, ticket.ticket_id))

        arrival_span = duration_ms * 0.4
        spacing = arrival_span / max(spec.n_clients, 1)
        for index in range(spec.n_clients):
            sim.engine.schedule_at(1000.0 + index * spacing,
                                   _connect, index)

        def _tick() -> None:
            holder["service"].tick()

        def _pump() -> None:
            holder["service"].pump()

        tick_period = max(spec.batch_window_ms, 64.0)
        t = 1000.0
        while t < duration_ms:
            sim.engine.schedule_at(t + tick_period * 0.999, _tick)
            t += tick_period
        t = 2048.0
        while t < duration_ms:
            sim.engine.schedule_at(t + 1.0, _pump)
            t += 2048.0

        # A few clients disconnect late (exercises Algorithm 2 and
        # refcounted release on both sides of the crash boundary).
        n_early = max(1, spec.n_clients // 6)
        early = rng.sample(range(spec.n_clients), n_early)

        def _disconnect(position: int) -> None:
            if position >= len(clients):
                return  # connect for this slot never ran (shed etc.)
            session_id, ticket_id = clients[position]
            try:
                holder["service"].terminate(session_id, ticket_id)
            except KeyError:
                pass  # its session already lapsed or closed
        for position in early:
            sim.engine.schedule_at(duration_ms * rng.uniform(0.7, 0.95),
                                   _disconnect, position)

        def _crash() -> None:
            old = holder["service"]
            now = sim.now
            pre = _durable_state(old, now)
            old.simulate_crash()
            recovered = QueryService.recover(
                deployment, durability, clock=lambda: sim.now)
            holder["service"] = recovered
            outcome.parity_failures = _diff_keys(
                pre, _durable_state(recovered, now))
            outcome.zombies_after = _zombie_count(deployment)
            try:
                recovered.validate()
            except AssertionError as exc:
                outcome.refcounts_ok = False
                outcome.parity_failures.append(f"validate: {exc}")
            report = recovered.last_recovery
            outcome.wal_records = report.wal_records
            outcome.replayed_ops = report.replayed_ops
            outcome.torn_records = report.torn_records
            outcome.reinjected = report.reinjected
            outcome.zombies_aborted = report.zombies_aborted
            # Clients re-subscribe (their old queues died with the old
            # process); dedup state is gone, so delivery restarts from
            # scratch — at-least-once, never silent loss.
            for session_id, ticket_id in clients:
                try:
                    if (recovered.ticket(ticket_id).status
                            is TicketStatus.LIVE):
                        recovered.subscribe(session_id, ticket_id)
                except KeyError:
                    pass

        if crash:
            crash_ms = max(duration_ms * spec.crash_fraction, 1500.0)
            sim.engine.schedule_at(crash_ms + 7.0, _crash)

        sim.start()
        sim.run_until(duration_ms + 4000.0)
        service = holder["service"]
        service.flush()
        service.pump()
        stats = service.stats()
        res = service.resilience_stats()
        outcome.completeness = deployment.row_completeness()
        outcome.delivered = stats.results_delivered
        outcome.admitted = stats.admitted_total
        outcome.shed = res.shed_total
        outcome.sessions_opened = stats.sessions_opened_total
        outcome.snapshots = res.snapshots
        if not crash:
            outcome.wal_records = res.wal_records
        service.shutdown()
        deployment.close()
        return outcome
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def chaos_grid(loss_rates=(0.0, 0.1), crash_fractions=(0.45,),
               **kwargs) -> List[ChaosCellSpec]:
    """The (loss rate x crash instant) grid, in deterministic order."""
    return [ChaosCellSpec(loss_rate=loss, crash_fraction=fraction, **kwargs)
            for loss in loss_rates for fraction in crash_fractions]


# ----------------------------------------------------------------------
# SIGKILL mode (real process death over a network-free backend)
# ----------------------------------------------------------------------
def _make_backend() -> OptimizerBackend:
    from ..core.basestation import BaseStationOptimizer
    from .tier1_sim import default_cost_model
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 4), alpha=0.6))


def _sigkill_child(state_dir: str, seed: int) -> None:
    """Child entry point: append service ops forever until killed.

    Writes an op counter to ``<state_dir>/progress`` after every loop so
    the parent knows when enough state exists to make the kill
    interesting.
    """
    progress = Path(state_dir) / "progress"
    service = QueryService(
        _make_backend(),
        durability=DurabilityConfig(directory=state_dir,
                                    snapshot_every_ops=5))
    rng = random.Random(seed)
    sessions: List[str] = []
    index = 0
    while True:
        session_id = service.open_session(f"kill-client-{index}")
        sessions.append(session_id)
        service.submit(session_id, _variant(
            _QUERY_POOL[index % len(_QUERY_POOL)], rng))
        service.flush()
        if len(sessions) > 4:
            service.close_session(sessions.pop(0))
        index += 1
        progress.write_text(str(index), encoding="utf-8")
        time.sleep(0.002)


def run_sigkill_crash(min_ops: int = 8, seed: int = 0,
                      timeout_s: float = 60.0) -> dict:
    """Kill a real WAL-writing process mid-operation and recover its state.

    Spawns :func:`_sigkill_child` in a fresh interpreter, waits until it
    reports at least ``min_ops`` completed loops, sends ``SIGKILL``, then
    recovers the directory twice: once to rebuild the service (asserting
    :meth:`QueryService.validate`), and once more over the first
    recovery's snapshot to prove recovery converges (identical state both
    times).  Returns a summary dict for tests/CLI.
    """
    state_dir = tempfile.mkdtemp(prefix="repro-sigkill-")
    progress = Path(state_dir) / "progress"
    wal_path = Path(state_dir) / WAL_FILENAME
    import repro
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.chaos", state_dir, str(seed)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + timeout_s
        ops = 0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                raise RuntimeError(
                    f"sigkill child exited early (rc={child.returncode})")
            try:
                ops = int(progress.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                ops = 0
            # Snapshots truncate the WAL, so a kill landing right after a
            # rotation would leave nothing to replay; wait for the next
            # append so the recovery path under test is always exercised.
            try:
                wal_pending = wal_path.stat().st_size > 0
            except OSError:
                wal_pending = False
            if ops >= min_ops and wal_pending:
                break
            time.sleep(0.01)
        else:
            raise RuntimeError(
                f"sigkill child reached only {ops}/{min_ops} ops in "
                f"{timeout_s:.0f}s")
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30.0)

        durability = DurabilityConfig(directory=state_dir,
                                      snapshot_every_ops=5)
        first = QueryService.recover(_make_backend(), durability)
        first.validate()
        report = first.last_recovery
        state_one = _durable_state(first, 0.0)
        live = len(first.live_tickets())
        first.simulate_crash()  # release the WAL handle
        second = QueryService.recover(_make_backend(), durability)
        second.validate()
        state_two = _durable_state(second, 0.0)
        second.simulate_crash()
        return {
            "ops_before_kill": ops,
            "wal_records": report.wal_records,
            "replayed_ops": report.replayed_ops,
            "torn_records": report.torn_records,
            "snapshot_loaded": report.snapshot_loaded,
            "live_tickets": live,
            "recovery_idempotent": state_one == state_two,
        }
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30.0)
        shutil.rmtree(state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Cluster chaos: shard/coordinator crashes under supervision
# ----------------------------------------------------------------------
#: Region-spanning + band-local questions the cluster chaos script cycles
#: through (side=8, K=2 partition: bands are nodes 1..31 / 32..63).
_CLUSTER_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 31 "
    "EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
    "EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
)


@dataclass
class ClusterChaosStats:
    """Outcome of one cluster chaos cell vs. its no-crash twin."""

    kill: str
    crashed: bool
    #: Submissions acknowledged (ticket returned) in each run.
    acked_crash: int
    acked_baseline: int
    #: Acked tickets missing or unexpectedly terminated after recovery.
    lost_acked: int
    #: Submissions refused with ShardDownError during the outage (each
    #: was retried after the heal — refusals are not acknowledgements).
    shard_down_refusals: int
    terminated_crash: int
    terminated_baseline: int
    orphans_after: int
    refcounts_ok: bool
    validate_failures: List[str]
    #: Failure-detector latency (virtual ms); 0 for coordinator kills.
    detect_ms: float
    #: Detection-to-heal latency (virtual ms); for coordinator kills the
    #: wall-clock cost of ClusterCoordinator.recover instead.
    recover_ms: float
    recovery_mode: str
    root_wal_replayed: int
    root_wal_torn: int

    @property
    def ok(self) -> bool:
        """Every cluster fault-tolerance invariant held for this cell."""
        return (self.lost_acked == 0 and self.orphans_after == 0
                and self.refcounts_ok
                and self.acked_crash == self.acked_baseline
                and self.terminated_crash == self.terminated_baseline)


@dataclass(frozen=True, eq=True)
class ClusterChaosCellSpec:
    """One seeded cluster crash experiment (virtual clock, in-process).

    ``kill`` selects the victim: ``"shard"`` crashes one shard service
    mid-run (the way SIGKILL kills a shard child) and lets the
    :class:`~repro.cluster.ShardSupervisor` detect and restart it from
    the shard's WAL; ``"coordinator"`` crashes the root itself and
    rebuilds it with :meth:`ClusterCoordinator.recover` over the *live*
    shard services, restoring anchors from the root WAL.  Both are
    verified against an identically-seeded no-crash twin.
    """

    kill: str = "shard"
    n_shards: int = 2
    victim: int = 0
    n_steps: int = 36
    step_ms: float = 500.0
    crash_fraction: float = 0.4
    deadline_ms: float = 900.0
    restart_backoff_ms: float = 200.0
    seed: Optional[int] = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return derive_seed(self)

    def run(self) -> ClusterChaosStats:
        baseline = _drive_cluster(self, crash=False)
        crashed = _drive_cluster(self, crash=True)
        return ClusterChaosStats(
            kill=self.kill,
            crashed=True,
            acked_crash=crashed["acked"],
            acked_baseline=baseline["acked"],
            lost_acked=crashed["lost_acked"],
            shard_down_refusals=crashed["refusals"],
            terminated_crash=crashed["terminated"],
            terminated_baseline=baseline["terminated"],
            orphans_after=crashed["orphans"],
            refcounts_ok=crashed["refcounts_ok"],
            validate_failures=crashed["validate_failures"],
            detect_ms=crashed["detect_ms"],
            recover_ms=crashed["recover_ms"],
            recovery_mode=crashed["recovery_mode"],
            root_wal_replayed=crashed["root_wal_replayed"],
            root_wal_torn=crashed["root_wal_torn"],
        )


def _drive_cluster(spec: ClusterChaosCellSpec, crash: bool) -> dict:
    """One scripted cluster run; crash (or not) at the scripted step.

    The script is deterministic given the spec seed: the same sessions,
    query texts, and terminate steps in both runs, so the no-crash twin
    gives exact expected totals.  Submissions refused with
    ``ShardDownError`` during an outage are queued and retried on later
    steps — a refusal is *not* an acknowledgement, so it may not count
    as lost.
    """
    from ..cluster import (ClusterCoordinator, FieldPartition,
                           ShardDownError, ShardSupervisor,
                           SupervisorConfig)

    seed = spec.resolved_seed()
    state_dir = tempfile.mkdtemp(prefix="repro-cluster-chaos-")
    out = {"acked": 0, "lost_acked": 0, "refusals": 0, "terminated": 0,
           "orphans": 0, "refcounts_ok": True, "validate_failures": [],
           "detect_ms": 0.0, "recover_ms": 0.0, "recovery_mode": "",
           "root_wal_replayed": 0, "root_wal_torn": 0}
    try:
        now = {"t": 0.0}
        clock = lambda: now["t"]  # noqa: E731 - shared virtual clock
        backends = [_make_backend() for _ in range(spec.n_shards)]
        partition = FieldPartition(8, spec.n_shards)
        holder = {"co": ClusterCoordinator(
            backends, partition=partition, clock=clock,
            durability_dir=state_dir, default_ttl_ms=1e12)}
        supervisor = ShardSupervisor(
            holder["co"],
            config=SupervisorConfig(
                deadline_ms=spec.deadline_ms,
                restart_backoff_ms=spec.restart_backoff_ms,
                max_backoff_ms=4 * spec.restart_backoff_ms),
            durability_dir=state_dir, clock=clock)
        rng = random.Random(seed ^ 0xC7A0)
        sessions: List[str] = []
        #: ticket id -> owning session, for acked-and-live tickets.
        live: Dict[str, str] = {}
        done: List[str] = []  # deliberately terminated, in order
        retry: List[Tuple[str, str]] = []
        crash_step = int(spec.n_steps * spec.crash_fraction)
        for step in range(spec.n_steps):
            now["t"] += spec.step_ms
            co = holder["co"]
            if step % 4 == 0:
                sessions.append(co.open_session(
                    f"tenant-{step:03d}", now_ms=now["t"]))
            text = _variant(
                _CLUSTER_POOL[step % len(_CLUSTER_POOL)], rng)
            sid = sessions[rng.randrange(len(sessions))]
            for queued_sid, queued_text in list(retry):
                try:
                    ticket = co.submit(queued_sid, queued_text,
                                       now_ms=now["t"])
                    live[ticket.ticket_id] = queued_sid
                    out["acked"] += 1
                    retry.remove((queued_sid, queued_text))
                except ShardDownError:
                    pass  # still down; keep it queued
            try:
                ticket = co.submit(sid, text, now_ms=now["t"])
                live[ticket.ticket_id] = sid
                out["acked"] += 1
            except ShardDownError:
                out["refusals"] += 1
                retry.append((sid, text))
            if step % 6 == 5 and live:
                victim_tid = sorted(live)[0]
                co.terminate(live.pop(victim_tid), victim_tid,
                             now_ms=now["t"])
                done.append(victim_tid)
                out["terminated"] += 1
            if crash and step == crash_step:
                if spec.kill == "shard":
                    co.shard_services()[spec.victim].simulate_crash()
                else:
                    co.simulate_crash()
                    started = time.perf_counter()
                    recovered = ClusterCoordinator.recover(
                        backends, state_dir, partition=partition,
                        clock=clock, services=co.shard_services())
                    out["recover_ms"] = (
                        (time.perf_counter() - started) * 1000.0)
                    out["recovery_mode"] = "root-wal"
                    report = recovered.last_root_recovery
                    if report is not None:
                        out["root_wal_replayed"] = report.replayed_ops
                        out["root_wal_torn"] = report.torn_records
                    holder["co"] = recovered
                    supervisor.coordinator = recovered
                    # Acked admissions must already be back, before
                    # any tenant resubmits (no re-adoption needed).
                    for tid in sorted(live):
                        try:
                            if recovered.ticket(tid).terminated:
                                out["lost_acked"] += 1
                        except KeyError:
                            out["lost_acked"] += 1
            supervisor.poll(now["t"])
            holder["co"].tick(now_ms=now["t"])
        co = holder["co"]
        for incident in supervisor.incidents:
            out["detect_ms"] = incident.time_to_detect_ms
            if incident.time_to_recover_ms is not None:
                out["recover_ms"] = incident.time_to_recover_ms
            out["recovery_mode"] = incident.mode
        # Invariants: every acked, unterminated admission survives.
        for tid in sorted(live):
            try:
                if co.ticket(tid).terminated:
                    out["lost_acked"] += 1
            except KeyError:
                out["lost_acked"] += 1
        for tid in done:
            try:
                if not co.ticket(tid).terminated:
                    out["validate_failures"].append(
                        f"terminated ticket {tid} resurrected")
            except KeyError:
                pass  # fully garbage-collected is fine
        out["orphans"] = len(co.orphan_anchors())
        try:
            co.validate()
        except AssertionError as exc:
            out["refcounts_ok"] = False
            out["validate_failures"].append(str(exc))
        co.shutdown(now_ms=now["t"])
        return out
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def cluster_chaos_grid(kills=("shard", "coordinator"),
                       **kwargs) -> List[ClusterChaosCellSpec]:
    """The cluster chaos grid, in deterministic order."""
    return [ClusterChaosCellSpec(kill=kill, **kwargs) for kill in kills]


def run_degraded_merge_probe(seed: int = 0, n_epochs: int = 12,
                             crash_epoch: int = 4) -> dict:
    """Measure completeness through a shard outage on simulated shards.

    Runs a fanned-out aggregation over a 2-shard
    :class:`~repro.cluster.ClusterDeployment`, crashes one shard's
    service mid-run, lets the supervisor restart it from its WAL, and
    records the per-epoch ``completeness`` the merge stamped — the
    degraded-mode contract: 0.5 while one of two shards is down, back
    to 1.0 after the heal, against a no-crash twin that stays at 1.0.
    """
    from ..cluster import (ClusterDeployment, FieldPartition,
                           ShardSupervisor, SupervisorConfig)

    def _run(crash: bool) -> dict:
        state_dir = tempfile.mkdtemp(prefix="repro-degraded-")
        epoch_ms = 4096.0
        connect_at = 500.0
        try:
            cluster = ClusterDeployment(
                FieldPartition(4, 2, quality_seed=seed), seed=seed,
                durability_dir=state_dir)
            co = cluster.coordinator
            supervisor = ShardSupervisor(
                co,
                config=SupervisorConfig(deadline_ms=epoch_ms / 4,
                                        restart_backoff_ms=256.0),
                durability_dir=state_dir,
                clock=lambda: cluster.now)
            cluster.run_until(connect_at)
            sid = co.open_session("probe")
            ticket = co.submit(
                sid,
                "SELECT MAX(light) FROM sensors EPOCH DURATION 4096")
            sink = co.subscribe(sid, ticket.ticket_id)
            completeness: Dict[float, float] = {}
            for epoch in range(1, n_epochs + 1):
                cluster.run_until(connect_at + epoch * epoch_ms)
                if crash and epoch == crash_epoch:
                    co.shard_services()[1].simulate_crash()
                supervisor.poll(cluster.now)
                cluster.pump()
            cluster.run_until(connect_at + (n_epochs + 2) * epoch_ms)
            supervisor.poll(cluster.now)
            cluster.pump(final=True)
            while True:
                try:
                    item = sink.get_nowait()
                except Exception:
                    break
                completeness[item.epoch_time] = item.completeness
            incidents = [
                {"detect_ms": i.time_to_detect_ms,
                 "recover_ms": i.time_to_recover_ms, "mode": i.mode}
                for i in supervisor.incidents]
            co.shutdown(now_ms=cluster.now)
            cluster.close()
            values = [completeness[t] for t in sorted(completeness)]
            return {
                "epochs": len(values),
                "completeness": values,
                "min_completeness": min(values) if values else 0.0,
                "healed": bool(values) and values[-1] == 1.0,
                "incidents": incidents,
            }
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    crashed = _run(crash=True)
    twin = _run(crash=False)
    return {
        "crash": crashed,
        "baseline": twin,
        "surviving_fraction": 0.5,
        "degraded_epochs": sum(
            1 for value in crashed["completeness"] if value < 1.0),
        "bound_held": all(value >= 0.5
                          for value in crashed["completeness"]),
    }


# ----------------------------------------------------------------------
# Cluster SIGKILL mode (real process death of the whole cluster process)
# ----------------------------------------------------------------------
def _cluster_sigkill_child(state_dir: str, seed: int) -> None:
    """Child entry point: drive a durable cluster until killed.

    Appends one line per *acknowledged* operation to
    ``<state_dir>/acked`` (``sub <ticket_id>`` after submit returns,
    ``term <ticket_id>`` after terminate returns) so the parent can
    check zero acknowledged admissions are lost, and bumps
    ``<state_dir>/progress`` once per loop.  ``ending <ticket_id>`` is
    logged before a terminate: the root journals it before returning, so
    a kill in between leaves a terminate the client never saw
    acknowledged, and either outcome is then correct.
    """
    from ..cluster import ClusterCoordinator, FieldPartition

    progress = Path(state_dir) / "progress"
    acked_log = open(Path(state_dir) / "acked", "a", encoding="utf-8")
    coordinator = ClusterCoordinator(
        [_make_backend() for _ in range(2)],
        partition=FieldPartition(8, 2),
        durability_dir=state_dir, default_ttl_ms=1e12)
    rng = random.Random(seed)
    session = coordinator.open_session("kill-tenant")
    live: List[str] = []
    index = 0
    while True:
        text = _variant(_CLUSTER_POOL[index % len(_CLUSTER_POOL)], rng)
        ticket = coordinator.submit(session, text)
        acked_log.write(f"sub {ticket.ticket_id}\n")
        acked_log.flush()
        live.append(ticket.ticket_id)
        if len(live) > 6:
            victim = live.pop(0)
            acked_log.write(f"ending {victim}\n")
            acked_log.flush()
            coordinator.terminate(session, victim)
            acked_log.write(f"term {victim}\n")
            acked_log.flush()
        coordinator.tick()
        index += 1
        progress.write_text(str(index), encoding="utf-8")
        time.sleep(0.002)


def run_cluster_sigkill_crash(min_ops: int = 10, seed: int = 0,
                              timeout_s: float = 60.0) -> dict:
    """SIGKILL a real cluster process; recover the root from its WAL.

    Like :func:`run_sigkill_crash` but the child drives a whole
    2-shard :class:`~repro.cluster.ClusterCoordinator` with a root WAL.
    After the kill the parent recovers the full cluster **twice** —
    proving double recovery is idempotent — and checks that every
    acknowledged admission survived and that anchors were restored from
    the root WAL (no orphans, i.e. no re-adoption was needed).
    """
    from ..cluster import ClusterCoordinator, FieldPartition

    state_dir = tempfile.mkdtemp(prefix="repro-cluster-sigkill-")
    progress = Path(state_dir) / "progress"
    root_wal = Path(state_dir) / "root" / WAL_FILENAME
    import repro
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.chaos", "--cluster",
         state_dir, str(seed)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + timeout_s
        ops = 0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                raise RuntimeError(
                    f"cluster sigkill child exited early "
                    f"(rc={child.returncode})")
            try:
                ops = int(progress.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                ops = 0
            try:
                wal_pending = root_wal.stat().st_size > 0
            except OSError:
                wal_pending = False
            if ops >= min_ops and wal_pending:
                break
            time.sleep(0.01)
        else:
            raise RuntimeError(
                f"cluster sigkill child reached only {ops}/{min_ops} "
                f"ops in {timeout_s:.0f}s")
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30.0)

        #: ticket id -> terminated? (None: terminate in flight at the kill)
        acked: Dict[str, Optional[bool]] = {}
        try:
            for line in (Path(state_dir) / "acked").read_text(
                    encoding="utf-8").splitlines():
                op, _, tid = line.partition(" ")
                if op == "sub":
                    acked[tid] = False
                elif op == "ending":
                    acked[tid] = None
                elif op == "term":
                    acked[tid] = True
        except OSError:
            pass

        def _recover():
            return ClusterCoordinator.recover(
                [_make_backend() for _ in range(2)], state_dir,
                partition=FieldPartition(8, 2))

        def _state(coordinator) -> dict:
            state = coordinator._root_snapshot_state(0.0)
            state.pop("saved_ms", None)
            state.pop("op_seq", None)  # recovery snapshots bump it
            return state

        def _crash(coordinator) -> None:
            for service in coordinator.shard_services():
                service.simulate_crash()
            coordinator.simulate_crash()

        first = _recover()
        report = first.last_root_recovery
        lost = 0
        for tid, terminated in sorted(acked.items()):
            try:
                ticket = first.ticket(tid)
                if (terminated is not None
                        and ticket.terminated != terminated):
                    lost += 1
            except KeyError:
                lost += 1
        orphans = len(first.orphan_anchors())
        first.validate()
        state_one = _state(first)
        _crash(first)
        second = _recover()
        second.validate()
        state_two = _state(second)
        second.abort_orphans()  # idempotence: stable when none exist
        state_three = _state(second)
        _crash(second)
        return {
            "ops_before_kill": ops,
            "acked_ops": len(acked),
            "lost_acked": lost,
            "orphan_anchors": orphans,
            "root_wal_replayed": report.replayed_ops if report else 0,
            "root_wal_torn": report.torn_records if report else 0,
            "root_snapshot_loaded": bool(report.snapshot_loaded
                                         if report else False),
            "recovery_idempotent": state_one == state_two == state_three,
        }
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30.0)
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if sys.argv[1] == "--cluster":
        _cluster_sigkill_child(sys.argv[2], int(sys.argv[3]))
    else:
        _sigkill_child(sys.argv[1], int(sys.argv[2]))
