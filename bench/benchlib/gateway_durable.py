"""``gateway_durable``: open-loop submits over TCP to a durable service."""

from __future__ import annotations

import itertools
import os
import random
import shutil
import socket
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.basestation import BaseStationOptimizer
from repro.core.qos import QoSClass
from repro.gateway import GatewayServer
from repro.gateway.protocol import decode_payload, encode_frame, recv_frame
from repro.harness.tier1_sim import default_cost_model
from repro.obs import MetricsRegistry, scoped
from repro.service import DurabilityConfig, OptimizerBackend, QueryService
from repro.service.load import _QUERY_POOL, _perturb
from repro.service.service import TicketStatus

from . import trace as tr
from .base import OUT_DIR, Outcome, Stopwatch, proxied
from .stats import Digest, percentile, p99_supported

NAME = "gateway_durable"
WHY = ("open-loop Poisson submits at a x2 rate ladder over pipelined TCP to "
       "a WAL-backed service, then crash and recover: framing, parse, cache, "
       "WAL and snapshots on the cache-hit regime, tier 1 nearly idle")

#: Offered submit rates per second, each held for ``STEP_S`` against its own
#: freshly started service.  The service keeps every ticket it ever issued
#: and snapshots all of them every 64 operations, so what it sustains falls
#: as its history grows: sharing one service would make a rate's result
#: depend on the rates before it.  On the box this was sized on, the top
#: rate is past the knee by the end of its step.
RATES = (100, 200, 400)
STEP_S = 5.0
QUICK_STEP_S = 0.4
#: The rate whose latency is reported as ``submit_p50_ms``/``submit_p99_ms``:
#: the second-lowest, and the lowest with 1000 samples in a step.
REPORT_RATE = RATES[1]
LATENCY_LIMIT_MS = 100.0
#: Once this many tickets are live the oldest is terminated.
LIVE_CAP = 50
DRAIN_TIMEOUT_S = 20.0
N_PINGS = 200

SERVICE_METHODS = ("open_session", "submit", "terminate", "tick", "pump")


def _new_backend() -> OptimizerBackend:
    return OptimizerBackend(
        BaseStationOptimizer(default_cost_model(64, 3), alpha=0.6))


@dataclass
class Inputs:
    #: Per rate: ``(due offset in ns from the step's start, query text)``.
    steps: List[List[Tuple[int, str]]]
    step_s: float


@dataclass
class Stack:
    """One durable service behind one gateway, with a client connected."""

    state_dir: str
    #: The services share metric names, so each stack records into its own.
    registry: MetricsRegistry
    durability: DurabilityConfig
    service: QueryService
    server: GatewayServer
    sock: socket.socket
    session: str


@dataclass
class Ctx:
    inputs: Inputs
    stacks: List[Stack]
    loops: List["OpenLoop"] = field(default_factory=list)


def make_inputs(seed: int, quick: bool) -> Inputs:
    rng = random.Random(seed ^ 0x6A7E)
    step_s = QUICK_STEP_S if quick else STEP_S
    steps = []
    for rate in RATES:
        # A Poisson process given its count: that many independent uniform
        # instants.  Fixing the count at rate x step keeps the work the
        # same for every seed and guarantees the reported rate its 1000
        # samples.
        instants = sorted(rng.uniform(0.0, step_s)
                          for _ in range(round(rate * step_s)))
        steps.append([(int(t * 1e9), _perturb(rng.choice(_QUERY_POOL), rng))
                      for t in instants])
    return Inputs(steps, step_s)


def _build_stack(tracer) -> Stack:
    state_dir = tempfile.mkdtemp(prefix="gateway-state-", dir=OUT_DIR)
    # The CLI's policy: snapshot every 64 ops, flush but no fsync.
    durability = DurabilityConfig(directory=state_dir, snapshot_every_ops=64,
                                  fsync=False)
    with scoped() as registry:
        service = QueryService(_new_backend(), batch_window_ms=0.0,
                               durability=durability)
        server = GatewayServer(
            proxied(service, tracer, "service", SERVICE_METHODS)).start()
    sock = socket.create_connection(server.address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(encode_frame({"op": "open", "id": 0, "client": "loadgen",
                               "ttl_ms": 3_600_000.0}))
    session = recv_frame(sock)["session"]
    return Stack(state_dir, registry, durability, service, server, sock,
                 session)


def _stop_stack(stack: Stack) -> None:
    """Hang up, let the server see it, then stop the server.

    Stopping a server that still has a peer cancels the connection's task
    mid-read, which asyncio reports on stderr as an unhandled exception.
    """
    try:
        stack.sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass                    # already shut down by the loop's close()
    stack.sock.close()
    open_connections = stack.registry.gauge("gateway.connections_open")
    deadline = time.perf_counter() + 2.0
    while open_connections.value and time.perf_counter() < deadline:
        time.sleep(0.001)
    stack.server.stop()


def setup(inputs: Inputs, tracer) -> Ctx:
    OUT_DIR.mkdir(exist_ok=True)
    return Ctx(inputs, [_build_stack(tracer) for _ in RATES])


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Request:
    op: str
    due_ns: int
    send_ns: int = 0
    recv_ns: int = 0
    encode_ns: int = 0
    backlog: int = 0
    ok: bool = False
    status: Optional[str] = None


@dataclass
class OpenLoop:
    """One pipelined connection: the caller sends, a thread reads."""

    sock: socket.socket
    session: str
    #: Request ids, shared by the run's loops so that id order is send order.
    ids: Iterator[int]
    #: Traced run only: keep reply frames and watch the WAL file grow.
    wal_path: Optional[Path] = None
    requests: Dict[int, Request] = field(default_factory=dict)
    sent: int = 0
    answered: int = 0
    stray_replies: int = 0
    live: deque = field(default_factory=deque)
    to_terminate: deque = field(default_factory=deque)
    replies: List[dict] = field(default_factory=list)
    wal_bytes: int = 0
    _wal_last: int = 0
    _reader: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._reader is None:
            self._reader = threading.Thread(
                target=self._read, name="bench-reader", daemon=True)
            self._reader.start()

    def send(self, op: str, due_ns: int, **fields) -> Request:
        request_id = next(self.ids)
        message = {"op": op, "id": request_id, "session": self.session,
                   **fields}
        request = Request(op, due_ns, backlog=self.sent - self.answered)
        self.requests[request_id] = request
        t0 = time.perf_counter_ns()
        payload = encode_frame(message)
        request.send_ns = time.perf_counter_ns()
        request.encode_ns = request.send_ns - t0
        self.sent += 1
        self.sock.sendall(payload)
        return request

    def flush_terminates(self) -> None:
        # The reader never writes: a reader blocked in sendall would stop
        # draining replies, and both directions could fill.
        while self.to_terminate:
            self.send("terminate", time.perf_counter_ns(),
                      ticket=self.to_terminate.popleft())

    def _read(self) -> None:
        while True:
            try:
                message = recv_frame(self.sock)
            except OSError:
                return
            now = time.perf_counter_ns()
            if message is None:
                return
            request = self.requests.get(message.get("id"))
            if message.get("kind") != "reply" or request is None \
                    or request.recv_ns:
                self.stray_replies += 1
                continue
            request.recv_ns = now
            request.ok = bool(message.get("ok"))
            request.status = message.get("status")
            if request.op == "submit" and request.ok \
                    and request.status == TicketStatus.LIVE.value:
                self.live.append(message["ticket"])
                if len(self.live) > LIVE_CAP:
                    self.to_terminate.append(self.live.popleft())
            if self.wal_path is not None:
                self.replies.append(message)
                size = os.stat(self.wal_path).st_size
                # A smaller file means a snapshot rotated the log.
                self.wal_bytes += (size - self._wal_last
                                   if size >= self._wal_last else size)
                self._wal_last = size
            self.answered += 1

    def drain(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            self.flush_terminates()
            if self.answered >= self.sent:
                return
            time.sleep(0.002)

    def close(self) -> None:
        self.sock.shutdown(socket.SHUT_RDWR)
        self._reader.join(timeout=10.0)


def _run_step(loop: OpenLoop, arrivals: List[Tuple[int, str]]
              ) -> List[Request]:
    """Send one rate's arrivals on schedule; returns its submit requests."""
    qos = QoSClass.RELIABLE.value
    submits = []
    start_ns = time.perf_counter_ns() + 2_000_000
    for offset_ns, text in arrivals:
        due_ns = start_ns + offset_ns
        loop.flush_terminates()
        wait_ns = due_ns - time.perf_counter_ns()
        if wait_ns > 0:
            # Sleeping (never spinning) leaves the interpreter lock to the
            # server thread; how late it wakes is reported as lag.
            time.sleep(wait_ns / 1e9)
        submits.append(loop.send("submit", due_ns, query=text, qos=qos))
    loop.drain(DRAIN_TIMEOUT_S)
    return submits


def _step_row(rate: int, step_s: float, submits: List[Request]) -> dict:
    """Latency from due time, failures and backlog for one rate."""
    answered = [r for r in submits if r.recv_ns]
    failed = sum(1 for r in submits
                 if not (r.recv_ns and r.ok
                         and r.status == TicketStatus.LIVE.value))
    latency_ms = [(r.recv_ns - r.due_ns) / 1e6 for r in answered]
    first_due = submits[0].due_ns if submits else 0
    span_ns = step_s * 1e9

    def backlog(lo: float, hi: float) -> int:
        return max((r.backlog for r in submits
                    if lo <= (r.due_ns - first_due) / span_ns < hi),
                   default=0)

    mid, end = backlog(0.25, 0.5), backlog(0.75, 1.01)
    p50, p99 = percentile(latency_ms, 50), percentile(latency_ms, 99)
    return {
        "rate": rate, "sent": len(submits), "answered": len(answered),
        "failed": failed, "p50_ms": p50, "p99_ms": p99,
        "p99_supported": p99_supported(len(answered)),
        "lag_ms_p99": percentile(
            [(r.send_ns - r.due_ns) / 1e6 for r in submits], 99),
        "backlog_mid": mid, "backlog_end": end,
        "backlog_max": max((r.backlog for r in submits), default=0),
        # Poisson bursts leave a handful outstanding at any instant, so
        # only a backlog that doubled since mid-run counts as growing.
        "ok": (failed == 0 and p99 <= LATENCY_LIMIT_MS
               and end <= max(2 * mid, 16)),
    }


def _crash_and_recover(stack: Stack, loop: OpenLoop, tracer) -> dict:
    """Die the way a killed process does, then come back from the state dir."""
    acked_live = list(loop.live) + list(loop.to_terminate)
    stack.service.simulate_crash()
    t0 = time.perf_counter()
    with tracer.span("service.recover", "service"):
        recovered = QueryService.recover(_new_backend(), stack.durability)
    recover_s = time.perf_counter() - t0
    lost = 0
    for ticket_id in acked_live:
        try:
            if recovered.ticket(ticket_id).status is not TicketStatus.LIVE:
                lost += 1
        except KeyError:
            lost += 1
    t0 = time.perf_counter()
    recovered.snapshot()
    snapshot_ms = (time.perf_counter() - t0) * 1000.0
    problems: List[str] = []
    try:
        recovered.validate()
    except AssertionError as exc:
        problems.append(f"validate() after recovery: {exc}")
    report = recovered.last_recovery
    recovered.shutdown()
    if lost:
        problems.append(f"{lost} acknowledged-live tickets lost in recovery")
    if report.replay_errors:
        problems.append(f"{report.replay_errors} WAL replay errors")
    return {"recover_s": recover_s, "lost": lost, "problems": problems,
            "replayed_ops": report.replayed_ops, "snapshot_ms": snapshot_ms,
            "acked_live": len(acked_live)}


def run(ctx: Ctx, tracer) -> Outcome:
    ids = itertools.count(1)
    loops = ctx.loops = [
        OpenLoop(stack.sock, stack.session, ids,
                 wal_path=stack.durability.wal_path if tracer.enabled
                 else None)
        for stack in ctx.stacks]
    ping_ms: List[float] = []
    if tracer.enabled:
        loops[0].start()
        for _ in range(N_PINGS):
            ping = loops[0].send("ping", time.perf_counter_ns())
            loops[0].drain(DRAIN_TIMEOUT_S)
            ping_ms.append((ping.recv_ns - ping.send_ns) / 1e6)

    rows = []
    with Stopwatch(tracer) as clock:
        for rate, arrivals, stack, loop in zip(RATES, ctx.inputs.steps,
                                               ctx.stacks, loops):
            loop.start()
            rows.append(_step_row(rate, ctx.inputs.step_s,
                                  _run_step(loop, arrivals)))
            loop.close()
            _stop_stack(stack)

    resilience = [s.service.resilience_stats() for s in ctx.stacks]
    stats = [s.service.stats() for s in ctx.stacks]
    gateway = {name: sum(s.registry.counter(f"gateway.{name}_total").value
                         for s in ctx.stacks)
               for name in ("requests", "sheds", "send_drops")}
    # The top rate's service holds the longest history and the largest log.
    recovery = _crash_and_recover(ctx.stacks[-1], loops[-1], tracer)
    problems = recovery["problems"]
    stray = sum(loop.stray_replies for loop in loops)
    if stray:
        problems.append(f"{stray} replies matched no request")

    terminates = [r for loop in loops for r in loop.requests.values()
                  if r.op == "terminate"]
    failed = (sum(row["failed"] for row in rows) + recovery["lost"]
              + sum(1 for r in terminates if not (r.recv_ns and r.ok)))
    ok_rates = [row["rate"] for row in rows if row["ok"]]
    report_row = rows[RATES.index(REPORT_RATE)]
    digest = Digest()
    for arrivals in ctx.inputs.steps:
        digest.add(arrivals)
    submissions = sum(s.submissions_total for s in stats)
    counts = {
        "gateway.requests": gateway["requests"],
        "gateway.sheds": gateway["sheds"],
        "gateway.send_drops": gateway["send_drops"],
        "service.registrations": sum(s.registrations for s in stats),
        "service.cache_hit_rate": (
            sum(s.cache_hits for s in stats) / max(1, submissions)),
        "service.shed_total": sum(r.shed_total for r in resilience),
        "service.wal_records": sum(r.wal_records for r in resilience),
        "service.snapshots": sum(r.snapshots for r in resilience),
        "service.recover_replayed_ops": recovery["replayed_ops"],
        "core.basestation.network_ops": sum(
            s.network_operations for s in stats),
    }
    return Outcome(
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        attempted=sum(row["sent"] for row in rows) + len(terminates),
        failed=failed, digest=digest.hex(),
        record={"inputs_digest": digest.hex(),
                "submits": sum(row["sent"] for row in rows)},
        values={
            "submit_p50_ms": report_row["p50_ms"],
            "submit_p99_ms": report_row["p99_ms"],
            # 0 when even the ladder's lowest rate misses the limit.
            "max_rate_ok_per_s": float(max(ok_rates, default=0)),
            "recover_s": recovery["recover_s"],
        },
        counts=counts, problems=problems,
        detail={"rates": rows, "report_rate": REPORT_RATE,
                "submit_samples": report_row["answered"],
                "p99_supported": report_row["p99_supported"],
                "snapshot_ms_final": recovery["snapshot_ms"],
                "acked_live_checked": recovery["acked_live"],
                "ping_rtt_ms_p50": percentile(ping_ms, 50)})


def layer_metrics(ctx: Ctx, outcome: Outcome, tracer) -> Dict[str, float]:
    rows = outcome.detail["rates"]
    requests: Dict[int, Request] = {}
    for loop in ctx.loops:
        requests.update(loop.requests)

    # A server handles one connection's requests in the order they were
    # sent, and the rates run one after another, so the k-th proxied
    # service call of an op belongs to the k-th request of that op; file
    # it under the request's client-side span.
    self_ms: List[float] = []
    for op in ("submit", "terminate"):
        spans = [s for s in tracer.spans if s[tr.NAME] == f"service.{op}"]
        ids = [i for i in sorted(requests) if requests[i].op == op]
        for request_id, span in zip(ids, spans):
            request = requests[request_id]
            if not request.recv_ns:
                continue
            parent = tracer.add(f"gateway.{op}", "gateway", request_id,
                                request.send_ns, request.recv_ns)
            span[tr.PARENT], span[tr.REQ] = parent, request_id
            if op == "submit":
                self_ms.append(((request.recv_ns - request.send_ns)
                                - (span[tr.END] - span[tr.START])) / 1e6)

    decode_us = []
    for reply in [r for loop in ctx.loops for r in loop.replies][:2000]:
        payload = encode_frame(reply)[4:]
        t0 = time.perf_counter_ns()
        decode_payload(payload)
        decode_us.append((time.perf_counter_ns() - t0) / 1e3)
    submits = [r for r in requests.values() if r.op == "submit"]
    metrics = {
        "gateway.ping_rtt_ms_p50": outcome.detail["ping_rtt_ms_p50"],
        "gateway.self_ms_p50": percentile(self_ms, 50),
        "gateway.encode_us_p50": percentile(
            [r.encode_ns / 1e3 for r in submits], 50),
        "gateway.decode_us_p50": percentile(decode_us, 50),
        "gateway.backlog_max": max(row["backlog_max"] for row in rows),
        "gateway.loadgen_lag_ms_p99": percentile(
            [(r.send_ns - r.due_ns) / 1e6 for r in submits], 99),
        "service.submit_busy_s": tracer.busy_s("service.submit"),
        "service.terminate_busy_s": tracer.busy_s("service.terminate"),
        "service.tick_busy_s": tracer.busy_s("service.tick"),
        "service.pump_busy_s": tracer.busy_s("service.pump"),
        "service.pump_calls": len(tracer.durations_s("service.pump")),
        "service.self_s": tracer.self_time_by_layer().get("service", 0.0),
        "service.wal_bytes": sum(loop.wal_bytes for loop in ctx.loops),
        "service.snapshot_ms_final": outcome.detail["snapshot_ms_final"],
    }
    for row in rows:
        metrics[f"gateway.submit_p50_ms_r{row['rate']}"] = row["p50_ms"]
        metrics[f"gateway.submit_p99_ms_r{row['rate']}"] = row["p99_ms"]
    return metrics


def teardown(ctx: Ctx) -> None:
    for stack in ctx.stacks:
        _stop_stack(stack)
        stack.service.shutdown()    # releases the WAL; no-op once crashed
        shutil.rmtree(stack.state_dir, ignore_errors=True)


def query_inputs(inputs: Inputs) -> list:
    return [text for arrivals in inputs.steps for _, text in arrivals]
