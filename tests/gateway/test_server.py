"""The asyncio front door: ops over real TCP, errors, backpressure."""

import asyncio
import queue as thread_queue
import time

import pytest

from repro.core.basestation import BaseStationOptimizer
from repro.gateway import GatewayClient, GatewayError, GatewayServer
from repro.gateway.server import _Connection, _item_to_wire
from repro.harness.tier1_sim import default_cost_model
from repro.service import OptimizerBackend, OverloadConfig, QueryService

Q_LIGHT = "SELECT light FROM sensors WHERE light > 300 EPOCH DURATION 4096"
Q_LIGHT_VARIANT = "select LIGHT from sensors where light > 300 " \
                  "SAMPLE PERIOD 4096"
Q_TEMP = "SELECT temp FROM sensors WHERE temp > 10 EPOCH DURATION 8192"


def make_service(**kwargs):
    backend = OptimizerBackend(
        BaseStationOptimizer(default_cost_model(16, 3), alpha=0.6))
    kwargs.setdefault("batch_window_ms", 0.0)
    return QueryService(backend, **kwargs)


@pytest.fixture
def gateway():
    service = make_service()
    server = GatewayServer(service).start()
    yield server
    server.stop()


@pytest.fixture
def client(gateway):
    host, port = gateway.address
    with GatewayClient(host, port, timeout_s=30.0) as c:
        yield c


class TestOps:
    def test_ping(self, client):
        assert client.ping() is True

    def test_submit_and_duplicate_hits_cache(self, client):
        session = client.open("alice")
        first = client.submit(session, Q_LIGHT)
        assert first["status"] == "live"
        assert first["cache_hit"] is False
        second = client.submit(session, Q_LIGHT_VARIANT)
        assert second["status"] == "live"
        assert second["cache_hit"] is True
        assert second["ticket"] != first["ticket"]

    def test_explain_prices_without_admitting(self, client):
        report = client.explain(Q_TEMP)
        assert report["action"] in ("injected", "absorbed", "cache-attach")
        assert report["price"]["radio_s_per_epoch"] > 0.0
        stats = client.stats()
        assert stats["submissions_total"] == 0

    def test_terminate_and_stats(self, client):
        session = client.open("bob")
        ticket = client.submit(session, Q_LIGHT)["ticket"]
        client.terminate(session, ticket)
        stats = client.stats()
        assert stats["terminations"] == 1
        assert stats["live_tickets"] == 0

    def test_close_session_releases_tickets(self, client):
        session = client.open("carol")
        client.submit(session, Q_LIGHT)
        client.submit(session, Q_TEMP)
        client.close_session(session)
        assert client.stats()["live_tickets"] == 0

    def test_two_connections_share_one_service(self, gateway):
        host, port = gateway.address
        with GatewayClient(host, port) as one, \
                GatewayClient(host, port) as two:
            session_one = one.open("alice")
            session_two = two.open("bob")
            first = one.submit(session_one, Q_LIGHT)
            second = two.submit(session_two, Q_LIGHT_VARIANT)
            assert first["cache_hit"] is False
            assert second["cache_hit"] is True


class TestErrors:
    def test_unknown_op_is_an_error_reply_not_a_disconnect(self, client):
        with pytest.raises(GatewayError, match="unknown op"):
            client._call("frobnicate")
        assert client.ping() is True  # connection survived

    def test_unknown_session_submit(self, client):
        with pytest.raises(GatewayError, match="SessionError|KeyError"):
            client.submit("no-such-session", Q_LIGHT)

    def test_unparseable_query(self, client):
        session = client.open("dave")
        with pytest.raises(GatewayError):
            client.submit(session, "SELECT nothing FROM nowhere AT ALL")
        assert client.ping() is True

    def test_terminate_foreign_ticket(self, gateway):
        host, port = gateway.address
        with GatewayClient(host, port) as one, \
                GatewayClient(host, port) as two:
            session_one = one.open("alice")
            session_two = two.open("mallory")
            ticket = one.submit(session_one, Q_LIGHT)["ticket"]
            with pytest.raises(GatewayError, match="owns no ticket"):
                two.terminate(session_two, ticket)


class TestBackpressure:
    """The gateway sheds BEST_EFFORT work when a peer stops reading."""

    def _server(self, depth=2, maxsize=4):
        service = make_service(overload=OverloadConfig(
            gateway_sendq_maxsize=maxsize,
            gateway_shed_sendq_depth=depth))
        return GatewayServer(service)

    def _submit_with_queue_depth(self, server, fill, qos="best-effort"):
        """Run one submit dispatch against a connection with a deep queue."""
        service = server.service
        session = service.open_session("slowpoke")

        async def run():
            maxsize = service.overload_config.gateway_sendq_maxsize
            conn = _Connection(sendq=asyncio.Queue(maxsize=maxsize))
            for index in range(fill):
                conn.sendq.put_nowait({"kind": "result", "n": index})
            reply = {"kind": "reply", "id": 1, "ok": True}
            await server._op_submit(
                conn, {"session": session, "query": Q_LIGHT, "qos": qos},
                reply)
            return reply

        return asyncio.run(run())

    def test_best_effort_shed_at_depth(self):
        server = self._server(depth=2)
        reply = self._submit_with_queue_depth(server, fill=2)
        assert reply["ok"] is True
        assert reply["status"] == "shed"
        assert reply["ticket"] is None
        assert reply["error"] == "gateway-sendq-backpressure"
        # Shed at the door: the service never saw the submission.
        assert server.service.stats().submissions_total == 0

    def test_best_effort_admitted_below_depth(self):
        server = self._server(depth=2)
        reply = self._submit_with_queue_depth(server, fill=1)
        assert reply["status"] == "live"

    def test_reliable_rides_through_backpressure(self):
        server = self._server(depth=1, maxsize=4)
        reply = self._submit_with_queue_depth(server, fill=3,
                                              qos="reliable")
        assert reply["status"] == "live"

    def test_depth_defaults_to_queue_bound_when_unset(self):
        service = make_service(overload=OverloadConfig(
            gateway_sendq_maxsize=3))
        server = GatewayServer(service)
        assert self._submit_with_queue_depth(
            server, fill=2)["status"] == "live"
        # ticket above still live; a full queue sheds
        assert self._submit_with_queue_depth(
            server, fill=3)["status"] == "shed"


class TestResultWire:
    def test_mapped_row_encoding(self):
        from repro.core.basestation.result_mapper import MappedRow
        wire = _item_to_wire(MappedRow(epoch_time=4096.0, origin=7,
                                       values={"light": 512.0}))
        assert wire == {"type": "row", "epoch_time": 4096.0, "origin": 7,
                       "values": {"light": 512.0}}

    def test_mapped_aggregates_encoding(self):
        from repro.core.basestation.result_mapper import MappedAggregates
        from repro.queries.ast import Aggregate, AggregateOp
        wire = _item_to_wire(MappedAggregates(
            epoch_time=8192.0,
            values={Aggregate(AggregateOp.MAX, "light"): 900.0}))
        assert wire["type"] == "aggregates"
        assert wire["values"] == {"MAX(light)": 900.0}
        assert wire["group_key"] == []

    def test_streamed_results_reach_a_subscribed_connection(self):
        """End to end through _stream_results with a stubbed subscriber."""
        from repro.core.basestation.result_mapper import MappedRow
        service = make_service()
        server = GatewayServer(service)

        async def run():
            conn = _Connection(sendq=asyncio.Queue(maxsize=8))
            subscriber = thread_queue.Queue()
            subscriber.put(MappedRow(epoch_time=1.0, origin=0,
                                     values={"light": 1.0}))
            conn.subscriptions[42] = subscriber
            server._connections.append(conn)
            server._stream_results()
            return conn.sendq.get_nowait()

        frame = asyncio.run(run())
        assert frame["kind"] == "result"
        assert frame["ticket"] == 42
        assert frame["item"]["type"] == "row"

    def test_overfull_sendq_drops_results_not_replies(self):
        from repro.core.basestation.result_mapper import MappedRow
        service = make_service(overload=OverloadConfig(
            gateway_sendq_maxsize=2))
        server = GatewayServer(service)

        async def run():
            conn = _Connection(sendq=asyncio.Queue(maxsize=2))
            subscriber = thread_queue.Queue()
            for index in range(5):
                subscriber.put(MappedRow(epoch_time=float(index), origin=0,
                                         values={"light": 1.0}))
            conn.subscriptions[1] = subscriber
            server._connections.append(conn)
            server._stream_results()
            return conn.sendq.qsize()

        assert asyncio.run(run()) == 2  # 2 queued, 3 dropped and counted


class TestClientResultStream:
    """``GatewayClient``'s side of the result stream, against a live server
    whose service hands out a stubbed subscriber queue."""

    @pytest.fixture
    def stream(self, monkeypatch):
        service = make_service()
        stubbed = thread_queue.Queue()
        monkeypatch.setattr(service, "subscribe",
                            lambda session_id, ticket_id: stubbed)
        server = GatewayServer(service, housekeeping_interval_s=0.01).start()
        host, port = server.address
        try:
            with GatewayClient(host, port, timeout_s=30.0) as client:
                session = client.open("watcher")
                ticket = client.submit(session, Q_LIGHT)["ticket"]
                client.subscribe(session, ticket)
                yield client, ticket, stubbed
        finally:
            server.stop()

    @staticmethod
    def _row(epoch_time):
        from repro.core.basestation.result_mapper import MappedRow
        return MappedRow(epoch_time=epoch_time, origin=3,
                         values={"light": 512.0})

    @staticmethod
    def _until_streamed(stubbed):
        deadline = time.monotonic() + 10.0
        while not stubbed.empty():
            assert time.monotonic() < deadline, "server never streamed"
            time.sleep(0.005)

    def test_wait_results_blocks_until_n_items(self, stream):
        client, ticket, stubbed = stream
        for epoch in range(3):
            stubbed.put(self._row(float(epoch)))
        items = client.wait_results(ticket, n=3, timeout_s=10.0)
        assert [item["epoch_time"] for item in items] == [0.0, 1.0, 2.0]
        assert items[0] == {"type": "row", "epoch_time": 0.0, "origin": 3,
                            "values": {"light": 512.0}}
        # wait_results hands the items over: nothing stays buffered.
        assert client.drain_results(ticket) == []

    def test_wait_results_times_out_when_nothing_streams(self, stream):
        client, ticket, _ = stream
        with pytest.raises(TimeoutError, match="0/1 results"):
            client.wait_results(ticket, n=1, timeout_s=0.2)

    def test_result_read_before_a_reply_is_buffered(self, stream):
        client, ticket, stubbed = stream
        stubbed.put(self._row(1.0))
        self._until_streamed(stubbed)
        # The result frame is queued ahead of the ping's reply, so the
        # call reads it first and keeps it for the ticket.
        assert client.ping() is True
        assert [item["epoch_time"]
                for item in client.drain_results(ticket)] == [1.0]
        assert client.drain_results(ticket) == []

    def test_drain_results_polls_without_blocking(self, stream):
        client, ticket, stubbed = stream
        assert client.drain_results(ticket) == []
        stubbed.put(self._row(2.0))
        self._until_streamed(stubbed)
        deadline = time.monotonic() + 10.0
        drained = []
        while not drained:
            assert time.monotonic() < deadline, "result never arrived"
            time.sleep(0.005)
            drained = client.drain_results(ticket)
        assert [item["epoch_time"] for item in drained] == [2.0]


class TestResilience:
    """Client-side timeout/reconnect knobs (see GatewayClient docs)."""

    def test_op_deadline_raises_gateway_timeout(self):
        import socket

        # A listener that accepts into its backlog but never replies.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            from repro.gateway import GatewayTimeout
            client = GatewayClient(host, port, op_deadline_s=0.2)
            try:
                with pytest.raises(GatewayTimeout) as excinfo:
                    client.ping()
                # A timeout is a GatewayError, so existing handlers that
                # treat server errors as per-op failures also cover it.
                assert isinstance(excinfo.value, GatewayError)
            finally:
                client.close()
        finally:
            listener.close()

    def test_next_op_reconnects_after_connection_death(self, gateway):
        from repro.gateway.protocol import ProtocolError

        host, port = gateway.address
        client = GatewayClient(host, port, max_reconnects=2,
                               reconnect_backoff_s=0.01)
        try:
            sid = client.open("resilient")
            reply = client.submit(sid, Q_LIGHT)
            assert reply["status"] in ("live", "pending")
            # Kill the connection out from under the client: the op that
            # observes the death fails loudly...
            client._sock.close()
            with pytest.raises((GatewayError, ProtocolError, OSError)):
                client.ping()
            # ...and the *next* op transparently reconnects.  Sessions
            # live server-side, so the tenant resumes where it left off.
            assert client.ping()
            assert client.reconnects_total == 1
            duplicate = client.submit(sid, Q_LIGHT_VARIANT)
            assert duplicate["cache_hit"]
            client.close_session(sid)
        finally:
            client.close()

    def test_reconnect_disabled_by_default(self, gateway):
        from repro.gateway.protocol import ProtocolError

        host, port = gateway.address
        client = GatewayClient(host, port)
        try:
            client.ping()
            client._sock.close()
            with pytest.raises((GatewayError, ProtocolError, OSError)):
                client.ping()
            # Still dead: no reconnect budget, the strict single-
            # connection behaviour is unchanged.
            with pytest.raises((GatewayError, ProtocolError, OSError)):
                client.ping()
            assert client.reconnects_total == 0
        finally:
            client.close()

    def test_reconnect_budget_exhaustion_raises(self):
        import socket

        # Reserve a port, then close it so nothing is listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        client = object.__new__(GatewayClient)
        client._host, client._port = host, port
        client._timeout_s = 0.2
        client._connect_timeout_s = 0.2
        client._max_reconnects = 2
        client._reconnect_backoff_s = 0.01
        client.reconnects_total = 0
        client._dead = True

        class _ClosedSock:
            def close(self):
                pass

        client._sock = _ClosedSock()
        with pytest.raises(GatewayError, match="unreachable after 2"):
            client._reconnect()
        assert client.reconnects_total == 0
