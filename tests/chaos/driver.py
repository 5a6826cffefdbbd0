"""One crash-and-recover driver for both durable tiers.

A chaos cell drives a scripted multi-tenant load against a durable front
end, crashes it at a seeded step, recovers it, and compares the run with
an identically-seeded no-crash twin.  :class:`ChaosCellSpec` runs a
:class:`~repro.service.QueryService` over a packet-level TTMQO deployment;
:class:`ClusterChaosCellSpec` runs a supervised
:class:`~repro.cluster.ClusterCoordinator` over network-free shards and
kills either one shard (the supervisor restarts it from its WAL) or the
root (rebuilt from the root WAL over the live shards).  Both run the same
script (:func:`_script`); a per-tier adapter supplies only what differs:
build, crash, recover, durable state and zombie count.  The invariants:

* **state parity** -- a front recovered at the crash instant holds the
  durable state the crashed one had (the delivered counter excepted:
  delivery dedup is volatile by design, so delivery is at-least-once);
* **zero acked admissions lost** -- every submit that returned a live
  ticket is still live after the recovery and at the end, and no
  terminated ticket comes back;
* **no zombies** -- no network query outside the recovered table's
  RUNNING set (service), no fan-out anchor without a tenant (cluster);
* **refcounts** -- ``validate()`` holds at the end;
* **the twin** -- the same submits were acknowledged and terminated as
  without the crash, and row completeness is within a bound of the
  twin's.

:func:`run_sigkill_crash` kills a real child process running one
tenant's submit/terminate loop against either tier with SIGKILL, then
recovers its directory twice and checks that the second recovery
reproduces the first.  :func:`run_degraded_merge_probe` measures merged
completeness through a shard outage on simulated shards.

Run from the repository root with ``src`` on ``PYTHONPATH``, the module
is the SIGKILL child: ``python -m tests.chaos.driver service|cluster DIR
SEED`` drives that tier until killed, and ``python -m tests.chaos.driver
gateway DIR STANDBY_PORT`` is the replicated gateway primary the
kill/promote tests kill.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster import (ClusterCoordinator, ClusterDeployment,
                           FieldPartition, ShardDownError, ShardSupervisor,
                           SupervisorConfig)
from repro.core.basestation import BaseStationOptimizer
from repro.core.basestation.query_table import SyntheticStatus
from repro.harness.cells import derive_seed
from repro.harness.strategies import Deployment, DeploymentConfig, Strategy
from repro.harness.tier1_sim import default_cost_model
from repro.service import DurabilityConfig, OptimizerBackend, QueryService
from repro.service.durability import WAL_FILENAME
from repro.sim import RadioParams

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Questions the service clients cycle through (the first ``n_unique``).
SERVICE_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT light, temp FROM sensors WHERE temp > 15 EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT MIN(temp) FROM sensors WHERE light > 200 EPOCH DURATION 8192",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE temp BETWEEN 10 AND 30 "
    "EPOCH DURATION 4096",
)

#: Region-spanning and band-local questions for the cluster (side 8,
#: two shards: the bands are nodes 1..31 and 32..63).
CLUSTER_POOL = (
    "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096",
    "SELECT temp FROM sensors WHERE nodeid BETWEEN 1 AND 31 "
    "EPOCH DURATION 4096",
    "SELECT MAX(light) FROM sensors EPOCH DURATION 8192",
    "SELECT temp FROM sensors WHERE nodeid BETWEEN 32 AND 63 "
    "EPOCH DURATION 4096",
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
)


def _variant(text: str, rng: random.Random) -> str:
    """A canonicalization-equivalent textual variant of ``text``."""
    choice = rng.random()
    if choice < 0.3:
        return text.lower()
    if choice < 0.5:
        return text.replace("EPOCH DURATION", "SAMPLE PERIOD")
    return text


def _backend(levels: int = 4) -> OptimizerBackend:
    """A network-free tier-1 backend on the 16-node cost model."""
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, levels), alpha=0.6))


def _diff(pre: dict, post: dict) -> List[str]:
    """Top-level keys of two durable states that differ, for the report."""
    return [f"{key}: pre={pre.get(key)!r} post={post.get(key)!r}"
            for key in sorted(set(pre) | set(post))
            if pre.get(key) != post.get(key)]


# ----------------------------------------------------------------------
# Per-tier adapters
# ----------------------------------------------------------------------
class _ServiceTier:
    """A WAL-backed :class:`QueryService`."""

    wal = WAL_FILENAME
    pool = SERVICE_POOL
    ticket_id = int

    def __init__(self, spec: "ChaosCellSpec", state_dir: str) -> None:
        # Arrivals fill the first 40% of the horizon, one per step.
        self.n_submits = spec.n_clients
        self.n_steps = math.ceil(spec.n_clients / 0.4)
        self.start_ms = 1000.0
        self.step_ms = (spec.duration_s * 1000.0 - self.start_ms) \
            / self.n_steps
        self.pool = SERVICE_POOL[:spec.n_unique]
        self.deployment = Deployment(Strategy.TTMQO, DeploymentConfig(
            side=spec.side, seed=spec.resolved_seed(),
            radio_params=(RadioParams(loss_rate=spec.loss_rate)
                          if spec.loss_rate else None)))
        sim = self.deployment.sim
        self.clock = lambda: sim.now
        self.durability = DurabilityConfig(
            directory=state_dir, snapshot_every_ops=spec.snapshot_every_ops)
        self.front = QueryService(
            self.deployment, batch_window_ms=spec.batch_window_ms,
            default_ttl_ms=spec.duration_s * 1e4, clock=self.clock,
            durability=self.durability)
        self.report = None
        sim.start()

    def advance(self, now: float) -> None:
        self.deployment.sim.run_until(now)

    def tick(self, now: float) -> None:
        self.front.tick()
        self.front.pump()

    def crash(self, now: float) -> List[str]:
        pre = self.state(self.front, now)
        self.front.simulate_crash()
        self.front = QueryService.recover(self.deployment, self.durability,
                                          clock=self.clock)
        self.report = self.front.last_recovery
        return _diff(pre, self.state(self.front, now))

    def zombies(self) -> int:
        return zombie_count(self.deployment)

    def finish(self, now: float) -> dict:
        self.deployment.sim.run_until(now + 4000.0)
        self.front.flush()
        self.front.pump()
        return {"completeness": self.deployment.row_completeness(),
                "recovery_mode": "recover" if self.report else "",
                "detect_ms": 0.0}

    def close(self, now: float) -> None:
        self.front.shutdown()
        self.deployment.close()

    # -- SIGKILL: a service over a bare optimizer ------------------------
    @staticmethod
    def open(state_dir: str, recover: bool = False) -> QueryService:
        durability = DurabilityConfig(directory=state_dir,
                                      snapshot_every_ops=5)
        if recover:
            return QueryService.recover(_backend(), durability)
        return QueryService(_backend(), durability=durability)

    @staticmethod
    def state(front: QueryService, now: float) -> dict:
        state = front._snapshot_state(now)
        state.pop("saved_ms", None)
        state["counters"].pop("delivered", None)
        return state

    @staticmethod
    def kill(front: QueryService) -> None:
        front.simulate_crash()

    @staticmethod
    def last_recovery(front: QueryService):
        return front.last_recovery

    @staticmethod
    def orphans(front: QueryService) -> int:
        return 0  # a bare optimizer runs no network queries


class _ClusterTier:
    """A supervised :class:`ClusterCoordinator` with a root WAL."""

    wal = os.path.join("root", WAL_FILENAME)
    pool = CLUSTER_POOL
    ticket_id = str

    def __init__(self, spec: "ClusterChaosCellSpec", state_dir: str) -> None:
        self.n_submits = self.n_steps = spec.n_steps
        self.start_ms = self.step_ms = spec.step_ms
        self.kill_root = spec.kill == "coordinator"
        self.victim = spec.victim
        self.state_dir = state_dir
        self.now = 0.0
        self.clock = lambda: self.now
        self.backends = [_backend() for _ in range(spec.n_shards)]
        self.partition = FieldPartition(8, spec.n_shards)
        self.front = ClusterCoordinator(
            self.backends, partition=self.partition, clock=self.clock,
            durability_dir=state_dir, default_ttl_ms=1e12)
        self.supervisor = ShardSupervisor(
            self.front,
            config=SupervisorConfig(
                deadline_ms=spec.deadline_ms,
                restart_backoff_ms=spec.restart_backoff_ms,
                max_backoff_ms=4 * spec.restart_backoff_ms),
            durability_dir=state_dir, clock=self.clock)
        self.report = None

    def advance(self, now: float) -> None:
        self.now = now

    def tick(self, now: float) -> None:
        self.supervisor.poll(now)
        self.front.tick(now_ms=now)

    def crash(self, now: float) -> List[str]:
        if not self.kill_root:
            self.front.shard_services()[self.victim].simulate_crash()
            return []
        pre = self.state(self.front, now)
        self.front.simulate_crash()
        self.front = ClusterCoordinator.recover(
            self.backends, self.state_dir, partition=self.partition,
            clock=self.clock, services=self.front.shard_services())
        self.supervisor.coordinator = self.front
        self.report = self.front.last_root_recovery
        return _diff(pre, self.state(self.front, now))

    def zombies(self) -> int:
        return self.orphans(self.front)

    def finish(self, now: float) -> dict:
        out = {"completeness": 1.0, "detect_ms": 0.0,
               "recovery_mode": "root-wal" if self.report else ""}
        for incident in self.supervisor.incidents:
            out["detect_ms"] = incident.time_to_detect_ms
            out["recovery_mode"] = incident.mode
            self.report = self.front.shard_services()[
                incident.shard_id].last_recovery
        return out

    def close(self, now: float) -> None:
        self.front.shutdown(now_ms=now)

    # -- SIGKILL: two shards over bare optimizers ------------------------
    @staticmethod
    def open(state_dir: str, recover: bool = False) -> ClusterCoordinator:
        backends = [_backend() for _ in range(2)]
        if recover:
            return ClusterCoordinator.recover(
                backends, state_dir, partition=FieldPartition(8, 2))
        return ClusterCoordinator(backends, partition=FieldPartition(8, 2),
                                  durability_dir=state_dir,
                                  default_ttl_ms=1e12)

    @staticmethod
    def state(front: ClusterCoordinator, now: float) -> dict:
        state = front._root_snapshot_state(now)
        state.pop("saved_ms", None)
        state.pop("op_seq", None)  # recovery snapshots bump it
        return state

    @staticmethod
    def kill(front: ClusterCoordinator) -> None:
        for service in front.shard_services():
            service.simulate_crash()
        front.simulate_crash()

    @staticmethod
    def orphans(front: ClusterCoordinator) -> int:
        return len(front.orphan_anchors())

    @staticmethod
    def last_recovery(front: ClusterCoordinator):
        return front.last_root_recovery


TIERS = {"service": _ServiceTier, "cluster": _ClusterTier}


def zombie_count(deployment: Deployment) -> int:
    """Network queries the tier-1 table no longer flags RUNNING."""
    table = deployment.optimizer.table
    wanted = {record.qid for record in table.synthetic.values()
              if record.flag is SyntheticStatus.RUNNING}
    return len(set(deployment.bs.running_queries()) - wanted)


# ----------------------------------------------------------------------
# The script, shared by both tiers
# ----------------------------------------------------------------------
def _lost(front, tickets: Dict) -> int:
    """Tickets the front lost: ``tickets`` maps id -> expected terminated
    (None: a terminate was in flight, so either outcome is right)."""
    lost = 0
    for tid, terminated in tickets.items():
        try:
            actual = front.ticket(tid).terminated
        except KeyError:  # a terminated ticket may be garbage-collected
            actual = True if terminated else None
        if actual is None or terminated not in (None, actual):
            lost += 1
    return lost


def _script(tier, rng: random.Random, crash_step: Optional[int]) -> dict:
    """Run the scripted load once; crash at ``crash_step`` when given.

    A session opens every fourth step; each submitting step submits one
    variant of the tier's pool on a random session, and every sixth step
    terminates the oldest live ticket.  A submit refused while a shard is
    down is not an acknowledgement: it is queued and retried on later
    steps.
    """
    out = {"acked": 0, "terminated": 0, "lost_acked": 0, "zombies": 0,
           "failures": []}
    sessions: List[str] = []
    live: Dict = {}  # acked, unterminated ticket id -> its session
    done: List = []
    retry: List = []
    now = tier.start_ms
    for step in range(tier.n_steps):
        now = tier.start_ms + step * tier.step_ms
        tier.advance(now)
        front = tier.front
        pending = list(retry)
        if step < tier.n_submits:
            if step % 4 == 0:
                sessions.append(front.open_session(f"client-{step:03d}",
                                                   now_ms=now))
            text = _variant(tier.pool[step % len(tier.pool)], rng)
            pending.append((sessions[rng.randrange(len(sessions))], text))
        retry.clear()
        for sid, text in pending:
            try:
                ticket = front.submit(sid, text, now_ms=now)
            except ShardDownError:
                retry.append((sid, text))
                continue
            if ticket.terminated:  # shed or rejected: not acknowledged
                continue
            live[ticket.ticket_id] = sid
            out["acked"] += 1
        if step % 6 == 5 and live:
            victim = sorted(live)[0]
            front.terminate(live.pop(victim), victim, now_ms=now)
            done.append(victim)
            out["terminated"] += 1
        if step == crash_step:
            out["failures"] += tier.crash(now)
            out["lost_acked"] += _lost(tier.front, dict.fromkeys(live, False))
            out["zombies"] += tier.zombies()
        tier.tick(now)
    out.update(tier.finish(now))
    front = tier.front
    out["lost_acked"] += _lost(front, dict.fromkeys(live, False))
    out["failures"] += [f"terminated ticket {tid} resurrected"
                        for tid in done if _lost(front, {tid: True})]
    out["zombies"] += tier.zombies()
    try:
        front.validate()
    except AssertionError as exc:
        out["failures"].append(f"validate: {exc}")
    tier.close(now)
    return out


@dataclass
class ChaosRunStats:
    """One chaos cell against its no-crash twin."""

    crashed: bool
    #: Parity diffs, ``validate()`` errors and resurrected terminations.
    failures: List[str]
    lost_acked: int
    zombies: int
    acked_crash: int
    acked_baseline: int
    terminated_crash: int
    terminated_baseline: int
    completeness_crash: float
    completeness_baseline: float
    completeness_bound: float
    wal_records: int
    replayed_ops: int
    #: Failure-detector latency (virtual ms) of a supervised restart.
    detect_ms: float
    #: ``recover`` (service or shard WAL) or ``root-wal``.
    recovery_mode: str

    @property
    def completeness_gap(self) -> float:
        """Baseline minus crash completeness (positive: the crash cost
        rows)."""
        return self.completeness_baseline - self.completeness_crash

    @property
    def ok(self) -> bool:
        """Every recovery invariant held for this cell."""
        return (not self.failures and self.lost_acked == 0
                and self.zombies == 0
                and self.acked_crash == self.acked_baseline
                and self.terminated_crash == self.terminated_baseline
                and self.completeness_gap <= self.completeness_bound)


def _twin(spec, tier_cls, salt: int, bound: float) -> ChaosRunStats:
    """Run ``spec`` with and without its crash and compare the two."""
    def _run(crash: bool) -> dict:
        state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        try:
            tier = tier_cls(spec, state_dir)
            crash_step = (int(tier.n_steps * spec.crash_fraction)
                          if crash else None)
            out = _script(tier, random.Random(spec.resolved_seed() ^ salt),
                          crash_step)
            report = tier.report
            out["wal_records"] = report.wal_records if report else 0
            out["replayed_ops"] = report.replayed_ops if report else 0
            return out
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    base = _run(crash=False)
    hit = _run(crash=True) if spec.crash_fraction > 0 else base
    return ChaosRunStats(
        crashed=spec.crash_fraction > 0, failures=hit["failures"],
        lost_acked=hit["lost_acked"], zombies=hit["zombies"],
        acked_crash=hit["acked"], acked_baseline=base["acked"],
        terminated_crash=hit["terminated"],
        terminated_baseline=base["terminated"],
        completeness_crash=hit["completeness"],
        completeness_baseline=base["completeness"],
        completeness_bound=bound, wal_records=hit["wal_records"],
        replayed_ops=hit["replayed_ops"], detect_ms=hit["detect_ms"],
        recovery_mode=hit["recovery_mode"])


def _resolved_seed(spec) -> int:
    return spec.seed if spec.seed is not None else derive_seed(spec)


@dataclass(frozen=True, eq=True)
class ChaosCellSpec:
    """One (loss rate x crash instant) service chaos experiment.

    ``crash_fraction`` places the crash at that fraction of the script;
    ``0`` disables it (the cell is its own twin, a sweep's control row).
    Seeds derive from the spec hash like every other cell kind.
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

    resolved_seed = _resolved_seed

    def run(self) -> ChaosRunStats:
        return _twin(self, _ServiceTier, 0xC4A05, self.completeness_bound)


@dataclass(frozen=True, eq=True)
class ClusterChaosCellSpec:
    """One cluster chaos experiment on a virtual clock.

    ``kill`` picks the victim: ``"shard"`` crashes shard ``victim`` and
    lets the :class:`~repro.cluster.ShardSupervisor` restart it from its
    WAL; ``"coordinator"`` crashes the root and rebuilds it with
    :meth:`ClusterCoordinator.recover` over the live shard services.
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

    resolved_seed = _resolved_seed

    def run(self) -> ChaosRunStats:
        return _twin(self, _ClusterTier, 0xC7A0, 0.0)


def chaos_grid(loss_rates=(0.0, 0.1), crash_fractions=(0.45,),
               **kwargs) -> List[ChaosCellSpec]:
    """The (loss rate x crash instant) grid, in deterministic order."""
    return [ChaosCellSpec(loss_rate=loss, crash_fraction=fraction, **kwargs)
            for loss in loss_rates for fraction in crash_fractions]


# ----------------------------------------------------------------------
# SIGKILL: real process death, then recovery twice
# ----------------------------------------------------------------------
def _child(tier: str, state_dir: str, seed: int) -> None:
    """Submit and terminate against ``tier`` until killed.

    Logs one line per acknowledged operation to ``<state_dir>/acked``
    (``sub <id>`` after submit returns, ``term <id>`` after terminate
    returns, and ``ending <id>`` before a terminate: the front journals
    it before returning, so a kill in between leaves either outcome
    right) and bumps ``<state_dir>/progress`` once per loop.
    """
    adapter = TIERS[tier]
    front = adapter.open(state_dir)
    progress = Path(state_dir) / "progress"
    rng = random.Random(seed)
    session = front.open_session("kill-tenant")
    pool = adapter.pool
    live: List = []
    with open(Path(state_dir) / "acked", "a", encoding="utf-8") as log:
        for index in itertools.count(1):
            text = _variant(pool[(index - 1) % len(pool)], rng)
            ticket = front.submit(session, text)
            log.write(f"sub {ticket.ticket_id}\n")
            log.flush()
            live.append(ticket.ticket_id)
            if len(live) > 6:
                victim = live.pop(0)
                log.write(f"ending {victim}\n")
                log.flush()
                front.terminate(session, victim)
                log.write(f"term {victim}\n")
                log.flush()
            front.tick()
            progress.write_text(str(index), encoding="utf-8")
            time.sleep(0.002)


def spawn(*args: str, stdout=subprocess.DEVNULL) -> subprocess.Popen:
    """Start ``python -m tests.chaos.driver ARGS`` from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen(
        [sys.executable, "-m", "tests.chaos.driver", *args], cwd=REPO_ROOT,
        env=env, stdout=stdout, stderr=subprocess.DEVNULL, text=True)


def run_sigkill_crash(tier: str = "service", min_ops: int = 8,
                      seed: int = 0, timeout_s: float = 60.0) -> dict:
    """SIGKILL a child driving ``tier`` mid-operation and recover it twice.

    Waits until the child reports ``min_ops`` loops with journal records
    pending (a kill right after a snapshot would leave nothing to
    replay), kills it, recovers the directory, checks every acknowledged
    ticket, then crashes and recovers again: the second recovery must
    reproduce the first one's durable state.
    """
    adapter = TIERS[tier]
    state_dir = tempfile.mkdtemp(prefix="repro-sigkill-")
    progress = Path(state_dir) / "progress"
    wal = Path(state_dir) / adapter.wal
    child = spawn(tier, state_dir, str(seed))
    try:
        deadline = time.monotonic() + timeout_s
        ops = 0
        while True:
            if child.poll() is not None:
                raise RuntimeError(
                    f"sigkill child exited early (rc={child.returncode})")
            try:
                ops = int(progress.read_text(encoding="utf-8"))
                pending = wal.stat().st_size > 0
            except (OSError, ValueError):
                pending = False
            if ops >= min_ops and pending:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"sigkill child reached only {ops}/"
                                   f"{min_ops} ops in {timeout_s:.0f}s")
            time.sleep(0.01)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30.0)

        acked: Dict = {}
        for line in (Path(state_dir) / "acked").read_text(
                encoding="utf-8").splitlines():
            op, _, tid = line.partition(" ")
            acked[adapter.ticket_id(tid)] = {
                "sub": False, "ending": None, "term": True}[op]
        first = adapter.open(state_dir, recover=True)
        report = adapter.last_recovery(first)
        lost = _lost(first, acked)
        orphans = adapter.orphans(first)
        first.validate()
        state_one = adapter.state(first, 0.0)
        adapter.kill(first)
        second = adapter.open(state_dir, recover=True)
        second.validate()
        state_two = adapter.state(second, 0.0)
        if tier == "cluster":
            second.abort_orphans()  # stable when none exist
        state_three = adapter.state(second, 0.0)
        adapter.kill(second)
        return {
            "ops_before_kill": ops,
            "acked_ops": len(acked),
            "lost_acked": lost,
            "orphans": orphans,
            "wal_records": report.wal_records,
            "replayed_ops": report.replayed_ops,
            "torn_records": report.torn_records,
            "snapshot_loaded": report.snapshot_loaded,
            "recovery_idempotent": state_one == state_two == state_three,
        }
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30.0)
        shutil.rmtree(state_dir, ignore_errors=True)


def run_degraded_merge_probe(seed: int = 0, n_epochs: int = 12,
                             crash_epoch: int = 4) -> dict:
    """Merged completeness through a shard outage on simulated shards.

    A fanned-out MAX over a 2-shard :class:`ClusterDeployment`; one shard
    crashes at ``crash_epoch`` and the supervisor restarts it from its
    WAL.  Epochs merged during the outage carry completeness 0.5 (one of
    two shards), back to 1.0 after the heal; a no-crash twin stays at 1.0.
    """
    def _run(crash: bool) -> dict:
        state_dir = tempfile.mkdtemp(prefix="repro-degraded-")
        epoch_ms, connect_at = 4096.0, 500.0
        try:
            cluster = ClusterDeployment(
                FieldPartition(4, 2, quality_seed=seed), seed=seed,
                durability_dir=state_dir)
            co = cluster.coordinator
            supervisor = ShardSupervisor(
                co, config=SupervisorConfig(deadline_ms=epoch_ms / 4,
                                            restart_backoff_ms=256.0),
                durability_dir=state_dir, clock=lambda: cluster.now)
            cluster.run_until(connect_at)
            sid = co.open_session("probe")
            ticket = co.submit(
                sid, "SELECT MAX(light) FROM sensors EPOCH DURATION 4096")
            sink = co.subscribe(sid, ticket.ticket_id)
            for epoch in range(1, n_epochs + 1):
                cluster.run_until(connect_at + epoch * epoch_ms)
                if crash and epoch == crash_epoch:
                    co.shard_services()[1].simulate_crash()
                supervisor.poll(cluster.now)
                cluster.pump()
            cluster.run_until(connect_at + (n_epochs + 2) * epoch_ms)
            supervisor.poll(cluster.now)
            cluster.pump(final=True)
            completeness = {}
            while True:
                try:
                    item = sink.get_nowait()
                except queue.Empty:
                    break
                completeness[item.epoch_time] = item.completeness
            values = [completeness[t] for t in sorted(completeness)]
            incidents = [{"detect_ms": i.time_to_detect_ms,
                          "recover_ms": i.time_to_recover_ms,
                          "mode": i.mode} for i in supervisor.incidents]
            co.shutdown(now_ms=cluster.now)
            cluster.close()
            return {"completeness": values,
                    "min_completeness": min(values, default=0.0),
                    "healed": bool(values) and values[-1] == 1.0,
                    "incidents": incidents}
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    crashed, twin = _run(crash=True), _run(crash=False)
    return {
        "crash": crashed,
        "baseline": twin,
        "surviving_fraction": 0.5,
        "degraded_epochs": sum(
            1 for value in crashed["completeness"] if value < 1.0),
        "bound_held": all(value >= 0.5
                          for value in crashed["completeness"]),
    }


def _gateway_child(state_dir: str, standby_port: int) -> None:
    """A replicated gateway primary: durable service, semi-sync
    replicator to the parent's standby, gateway on an ephemeral port.

    Prints ``PORT <n>`` for the parent, then sleeps until SIGKILLed.
    """
    from repro.gateway import GatewayServer
    from repro.service import PrimaryReplicator, ReplicationConfig

    host = "127.0.0.1"
    service = QueryService(
        _backend(3), batch_window_ms=0.0,
        durability=DurabilityConfig(directory=state_dir,
                                    snapshot_every_ops=16))
    replicator = PrimaryReplicator(ReplicationConfig(
        host=host, port=standby_port, epoch_ms=5.0, sync=True))
    service.attach_replicator(replicator)
    gateway = GatewayServer(service, host=host,
                            replicator=replicator).start()
    print(f"PORT {gateway.address[1]}", flush=True)
    while True:
        time.sleep(0.5)


if __name__ == "__main__":
    if sys.argv[1] == "gateway":
        _gateway_child(sys.argv[2], int(sys.argv[3]))
    else:
        _child(sys.argv[1], sys.argv[2], int(sys.argv[3]))
