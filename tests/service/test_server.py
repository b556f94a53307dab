"""End-to-end tests for the TCP server and JSON line protocol."""

import json
import socket
import threading

import pytest

from tests.conftest import wait_until

from repro.core import build_index_fast
from repro.graph import paper_example_graph
from repro.service import ESDServer, ServerConfig, ServiceClient, ServiceError
from repro.service.verify import verify_topk_responses


@pytest.fixture
def server():
    instance = ESDServer(
        paper_example_graph(),
        ServerConfig(port=0, debug=True, queue_timeout=5.0),
    ).start()
    yield instance
    instance.shutdown()


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        assert client.ping()

    def test_request_id_echoed(self, server):
        with socket.create_connection(server.address) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "ping", "id": "abc"}\n')
            f.flush()
            response = json.loads(f.readline())
        assert response == {"ok": True, "result": "pong", "id": "abc"}

    def test_malformed_json_is_bad_request(self, server):
        with socket.create_connection(server.address) as sock:
            f = sock.makefile("rwb")
            f.write(b"{not json\n")
            f.flush()
            response = json.loads(f.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_non_object_and_missing_op(self, server):
        with socket.create_connection(server.address) as sock:
            f = sock.makefile("rwb")
            for raw in [b"[1, 2]\n", b'{"k": 5}\n']:
                f.write(raw)
                f.flush()
                response = json.loads(f.readline())
                assert response["error"]["code"] == "bad_request"

    def test_oversized_line_answered_once_then_closed(self, server):
        from repro.service.protocol import MAX_LINE_BYTES

        with socket.create_connection(server.address) as sock:
            f = sock.makefile("rwb")
            f.write(b"x" * (MAX_LINE_BYTES + 10) + b"\n")
            f.write(b'{"op": "ping"}\n')
            f.flush()
            response = json.loads(f.readline())
            assert response["error"]["code"] == "bad_request"
            try:
                tail = f.readline()
            except ConnectionResetError:  # the unread tail may reset
                tail = b""
            assert tail == b""  # closed: the cut-off tail is never answered

    def test_connections_disable_nagle(self, server, client):
        """Each answer is its own small write: the answer to a pipelined
        request must not wait for the peer's delayed ACK of the last."""
        assert client.ping()
        (connection,) = server._tcp._connections
        assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("frobnicate")
        assert info.value.code == "unknown_op"

    def test_invalid_arguments(self, client):
        for fields in [{"k": 0}, {"k": "ten"}, {"tau": -1}, {"k": True}]:
            with pytest.raises(ServiceError) as info:
                client.request("topk", **fields)
            assert info.value.code == "invalid_argument"

    def test_blank_lines_ignored(self, server):
        with socket.create_connection(server.address) as sock:
            f = sock.makefile("rwb")
            f.write(b"\n\n")
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["result"] == "pong"


class TestQueries:
    def test_topk_matches_fresh_index(self, client):
        fresh = build_index_fast(paper_example_graph())
        reply = client.topk(k=5, tau=2)
        assert reply.items == fresh.topk(5, 2)
        assert reply.graph_version == 0

    def test_score_and_stats(self, client):
        score = client.score("b", "c", tau=1)
        fresh = build_index_fast(paper_example_graph())
        assert score["score"] == fresh.score(("b", "c"), 1)
        stats = client.stats()
        assert stats["n"] == 16 and stats["graph_version"] == 0
        assert stats["index"]["edges"] > 0

    def test_cache_invalidation_over_the_wire(self, client):
        first = client.topk(k=5, tau=1)
        assert client.topk(k=5, tau=1).cached is True
        update = client.insert_edge("a", "p")
        assert update["graph_version"] == 1
        after = client.topk(k=5, tau=1)
        assert after.cached is False
        assert after.graph_version == 1
        client.delete_edge("a", "p")
        restored = client.topk(k=5, tau=1)
        assert restored.graph_version == 2
        assert restored.items == first.items  # same graph again

    def test_update_errors_are_structured(self, client):
        with pytest.raises(ServiceError) as duplicate:
            client.insert_edge("a", "b")
        assert duplicate.value.code == "invalid_argument"
        with pytest.raises(ServiceError) as missing:
            client.delete_edge("zz", "zy")
        assert missing.value.code == "not_found"
        with pytest.raises(ServiceError) as action:
            client.update("upsert", "a", "b")
        assert action.value.code == "invalid_argument"

    def test_watch_feed(self, client):
        watch = client.watch(k=3, tau=1)
        client.insert_edge("a", "p")
        client.delete_edge("a", "p")
        changes = client.changes(watch["watch_id"])
        assert isinstance(changes, list)
        assert client.unwatch(watch["watch_id"])["removed"] is True
        with pytest.raises(ServiceError) as info:
            client.changes(watch["watch_id"])
        assert info.value.code == "not_found"

    def test_metrics_endpoint(self, client):
        client.topk(k=5, tau=2)
        client.topk(k=5, tau=2)
        metrics = client.metrics()
        assert metrics["cache"]["hits"] >= 1
        assert metrics["endpoints"]["topk"]["requests"] >= 2
        assert "p99_ms" in metrics["endpoints"]["topk"]


class TestConcurrency:
    def test_concurrent_clients_consistent_and_cached(self, server):
        graph = paper_example_graph()
        host, port = server.address
        payloads = []
        updates = []
        lock = threading.Lock()
        errors = []

        def reader(cid):
            try:
                with ServiceClient(host, port) as c:
                    for _ in range(6):
                        result = c.request("topk", k=4, tau=1)
                        with lock:
                            payloads.append((4, 1, result))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        def writer():
            try:
                with ServiceClient(host, port) as c:
                    for _ in range(3):
                        for action, edge in [
                            ("insert", ("a", "p")), ("delete", ("a", "p")),
                        ]:
                            result = c.update(action, *edge)
                            with lock:
                                updates.append(
                                    (result["graph_version"], action, edge)
                                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert len(payloads) == 48 and len(updates) == 6
        assert verify_topk_responses(graph, updates, payloads) == []
        # repeated identical queries must have produced cache hits
        assert server.engine.metrics_snapshot()["cache"]["hits"] > 0

    def test_backpressure_returns_overloaded(self):
        tiny = ESDServer(
            paper_example_graph(),
            ServerConfig(port=0, max_pending=1, queue_timeout=0.05, debug=True),
        ).start()
        host, port = tiny.address
        try:
            started = threading.Event()

            def occupy():
                with ServiceClient(host, port) as c:
                    started.set()
                    c.request("sleep", seconds=1.0)

            thread = threading.Thread(target=occupy)
            thread.start()
            started.wait(timeout=5)
            wait_until(
                lambda: tiny.engine.metrics_snapshot()["counters"].get(
                    "inflight", 0
                ) >= 1,
                message="the sleeper taking the only admission slot",
            )
            with ServiceClient(host, port) as c:
                with pytest.raises(ServiceError) as info:
                    c.ping()
                assert info.value.code == "overloaded"
            thread.join(timeout=5)
            metrics = tiny.engine.metrics_snapshot()
            assert metrics["counters"].get("rejected_overload", 0) >= 1
        finally:
            tiny.shutdown()

    def test_sleep_requires_debug(self):
        plain = ESDServer(paper_example_graph(), ServerConfig(port=0)).start()
        try:
            with ServiceClient(*plain.address) as c:
                with pytest.raises(ServiceError) as info:
                    c.request("sleep", seconds=0.1)
                assert info.value.code == "unknown_op"
        finally:
            plain.shutdown()


class TestRestartErgonomics:
    """Rapid cycling, idempotent shutdown, metrics scraping (PR: cluster)."""

    def test_rapid_stop_start_on_same_port(self):
        # Bind an ephemeral port once, then cycle servers on that exact
        # port back to back: SO_REUSEADDR must spare us EADDRINUSE.
        probe = ESDServer(paper_example_graph(), ServerConfig(port=0))
        port = probe.address[1]
        probe.shutdown()
        for _ in range(3):
            instance = ESDServer(
                paper_example_graph(), ServerConfig(port=port)
            ).start()
            try:
                with ServiceClient(*instance.address) as c:
                    assert c.ping()
            finally:
                instance.shutdown()

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()  # second call is a no-op, not a hang/crash

    def test_shutdown_without_serving_does_not_hang(self):
        instance = ESDServer(paper_example_graph(), ServerConfig(port=0))
        instance.shutdown()  # never started: must return promptly

    def test_shutdown_severs_established_connections(self):
        instance = ESDServer(
            paper_example_graph(), ServerConfig(port=0)
        ).start()
        sock = socket.create_connection(instance.address)
        f = sock.makefile("rwb")
        f.write(b'{"op": "ping"}\n')
        f.flush()
        assert json.loads(f.readline())["result"] == "pong"
        instance.shutdown()
        assert f.readline() == b""  # peers see EOF, not a silent leak
        sock.close()

    def test_metrics_text_op(self, client):
        client.topk(k=3)
        result = client.request("metrics-text")
        assert result["content_type"].startswith("text/plain; version=0.0.4")
        assert "esd_graph_version 0" in result["text"]
        assert 'esd_endpoint_requests{endpoint="topk"} 1' in result["text"]

    def test_http_get_scrape(self, server):
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in head
        assert b"esd_graph_version 0" in body
