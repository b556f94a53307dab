"""Threaded TCP server speaking the JSON line protocol.

:class:`ESDServer` owns one :class:`~repro.service.engine.QueryEngine`
and serves it over a ``ThreadingTCPServer`` (one daemon thread per
connection, many requests per connection).  On top of the engine it adds
**admission control**: a counting semaphore bounds how many requests may
be queued-or-executing at once; a request that cannot obtain a slot
within ``queue_timeout`` seconds is answered with a structured
``overloaded`` error instead of hanging -- callers get an explicit
backpressure signal they can retry on.

Start it in-process (``server.start()``; it binds in the constructor, so
``server.address`` is usable immediately) or via ``esd serve`` from the
command line.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.graph.graph import Graph
from repro.obs.promtext import http_metrics_response, render_prometheus
from repro.service import protocol
from repro.service.engine import QueryEngine
from repro.service.protocol import ProtocolError

#: Content type of the Prometheus text-exposition format we render.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class ServerConfig:
    """Tunables for one :class:`ESDServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port from ``address``
    max_pending: int = 64  #: admission-control slots (queued + executing)
    queue_timeout: float = 2.0  #: seconds to wait for a slot before rejecting
    cache_size: int = 1024  #: LRU result-cache capacity
    debug: bool = False  #: enable the test-only ``sleep`` op
    data_dir: Optional[str] = None  #: durable snapshot+WAL directory
    snapshot_interval: int = 1000  #: mutations between WAL compactions
    fsync: bool = True  #: fsync each WAL append (durable acks)
    slow_query_threshold: float = 0.25  #: seconds; 0 disables the slow log
    slow_log_capacity: int = 128  #: slow-query ring-buffer entries
    invariant_check_interval: int = 0  #: mutations between sampled checks (0 = off)
    invariant_sample_size: int = 8  #: edges verified per sampled check
    warm_metrics: Tuple[str, ...] = ()  #: scorers re-warmed in the background after writes

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.queue_timeout < 0:
            raise ValueError(
                f"queue_timeout must be >= 0, got {self.queue_timeout}"
            )
        if self.snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {self.snapshot_interval}"
            )
        if self.slow_query_threshold < 0:
            raise ValueError(
                f"slow_query_threshold must be >= 0, got "
                f"{self.slow_query_threshold}"
            )
        if self.invariant_check_interval < 0:
            raise ValueError(
                f"invariant_check_interval must be >= 0, got "
                f"{self.invariant_check_interval}"
            )


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    # Each response is its own write.  With Nagle on, the answer to a
    # pipelined request (the router sends many on one link) waits for
    # the peer's delayed ACK of the previous answer -- up to 40 ms.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
            except OSError:
                return
            if not line:
                return
            if len(line) > protocol.MAX_LINE_BYTES and not line.endswith(b"\n"):
                # The line was cut mid-request and its tail cannot be
                # framed: answer once and close, as the router does.
                self._send(protocol.encode(protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                )))
                return
            stripped = line.strip()
            if not stripped:
                continue
            if protocol.is_http_get(stripped):
                # Prometheus/text scrape: answer with HTTP and close.
                self._send(server.owner.handle_http_get())
                return
            response = server.owner.handle_line(stripped)
            if not self._send(protocol.encode(response)):
                return

    def _send(self, data: bytes) -> bool:
        """Write and flush ``data``; False once the peer is gone."""
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except OSError:
            return False
        return True


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, owner: "ESDServer") -> None:
        self.owner = owner
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _LineHandler)

    # Track live connection sockets so shutdown can sever them: the
    # stock ThreadingTCPServer only closes the *listener*, leaving
    # established connections (and their daemon handler threads) alive
    # -- peers like the cluster router would never see EOF.

    def get_request(self):
        request, addr = super().get_request()
        with self._connections_lock:
            self._connections.add(request)
        return request, addr

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class ESDServer:
    """A long-lived top-k structural diversity query service.

    With ``config.data_dir`` set, the server is durable: an existing
    data directory is *recovered* (snapshot + WAL replay; any provided
    ``graph`` is then only a fallback for an empty directory), and every
    subsequent mutation is write-ahead logged before it is applied.
    ``server.recovery`` holds the
    :class:`~repro.persistence.store.RecoveryReport` of the startup.
    """

    def __init__(
        self, graph: Optional[Graph] = None, config: Optional[ServerConfig] = None
    ) -> None:
        self.config = config or ServerConfig()
        self.recovery = None
        if self.config.data_dir is not None:
            from repro.persistence.store import DataDirectory

            store = DataDirectory(self.config.data_dir, fsync=self.config.fsync)
            dyn, self.recovery = store.open(bootstrap_graph=graph)
            self.engine = QueryEngine(
                dynamic_index=dyn,
                store=store,
                snapshot_interval=self.config.snapshot_interval,
                cache_size=self.config.cache_size,
                slow_query_threshold=self.config.slow_query_threshold,
                slow_log_capacity=self.config.slow_log_capacity,
                invariant_check_interval=self.config.invariant_check_interval,
                invariant_sample_size=self.config.invariant_sample_size,
                warm_metrics=list(self.config.warm_metrics),
            )
        else:
            if graph is None:
                raise ValueError("a graph is required without a data_dir")
            self.engine = QueryEngine(
                graph,
                cache_size=self.config.cache_size,
                slow_query_threshold=self.config.slow_query_threshold,
                slow_log_capacity=self.config.slow_log_capacity,
                invariant_check_interval=self.config.invariant_check_interval,
                invariant_sample_size=self.config.invariant_sample_size,
                warm_metrics=list(self.config.warm_metrics),
            )
        self._admission = threading.Semaphore(self.config.max_pending)
        self._tcp = _TCPServer((self.config.host, self.config.port), self)
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid as soon as constructed)."""
        host, port = self._tcp.server_address[:2]
        return host, port

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._serving.set()
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        finally:
            self._serving.clear()

    def start(self) -> "ESDServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="esd-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop accepting connections, close the socket, flush durability.

        Idempotent (a second call is a no-op) and bounded (the serve
        thread is joined for at most ``join_timeout`` seconds), so a
        supervisor cycling servers rapidly can always make progress.
        The listening socket is ``SO_REUSEADDR``, so a successor may
        rebind the same port immediately.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None or self._serving.is_set():
            # socketserver's shutdown() handshakes with serve_forever and
            # would block forever if the serve loop never ran; only wave
            # it down when someone is (or is about to be) serving.
            self._tcp.shutdown()
        self._tcp.server_close()
        self._tcp.close_all_connections()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "ESDServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request handling -----------------------------------------------------

    def metrics_text(self) -> str:
        """The unified registry rendered as Prometheus text exposition."""
        return render_prometheus(self.engine.metrics_snapshot())

    def handle_http_get(self) -> bytes:
        """Answer a literal ``GET ...`` request line (metrics scrape)."""
        return http_metrics_response(self.metrics_text())

    def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Decode, admit, dispatch one request; always returns a response."""
        try:
            message = protocol.decode_line(line)
        except ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message)
        request_id = message.get("id")
        if not self._admission.acquire(timeout=self.config.queue_timeout):
            self.engine.metrics.incr("rejected_overload")
            return protocol.error_response(
                protocol.OVERLOADED,
                f"server at capacity ({self.config.max_pending} pending); "
                "retry later",
                request_id,
            )
        self.engine.metrics.incr("inflight")
        try:
            return protocol.ok_response(self._dispatch(message), request_id)
        except ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message, request_id)
        except (ValueError, TypeError) as exc:
            return protocol.error_response(
                protocol.INVALID_ARGUMENT, str(exc), request_id
            )
        except KeyError as exc:
            detail = exc.args[0] if exc.args else exc
            return protocol.error_response(
                protocol.NOT_FOUND, str(detail), request_id
            )
        except Exception as exc:  # never crash the connection thread
            self.engine.metrics.incr("internal_errors")
            return protocol.error_response(
                protocol.INTERNAL, f"{type(exc).__name__}: {exc}", request_id
            )
        finally:
            self.engine.metrics.incr("inflight", -1)
            self._admission.release()

    def _dispatch(self, message: Dict[str, Any]) -> Any:
        engine = self.engine
        op = message["op"]
        if op == "ping":
            return "pong"
        if op == "topk":
            return engine.topk(
                protocol.int_field(message, "k", default=10),
                protocol.int_field(message, "tau", default=2),
                metric=protocol.metric_field(message),
            )
        if op == "score":
            return engine.score(
                protocol.vertex_field(message, "u"),
                protocol.vertex_field(message, "v"),
                protocol.int_field(message, "tau", default=2),
                metric=protocol.metric_field(message),
            )
        if op == "stats":
            return engine.stats()
        if op == "update":
            action = message.get("action")
            if action not in ("insert", "delete"):
                raise ProtocolError(
                    protocol.INVALID_ARGUMENT,
                    f"field 'action' must be 'insert' or 'delete', got {action!r}",
                )
            return engine.update(
                action,
                protocol.vertex_field(message, "u"),
                protocol.vertex_field(message, "v"),
            )
        if op == "watch":
            return engine.watch(
                protocol.int_field(message, "k", default=10),
                protocol.int_field(message, "tau", default=2),
                metric=protocol.metric_field(message),
            )
        if op == "changes":
            return engine.changes(protocol.int_field(message, "watch_id"))
        if op == "unwatch":
            return engine.unwatch(protocol.int_field(message, "watch_id"))
        if op == "metrics":
            return engine.metrics_snapshot()
        if op == "metrics-text":
            return {"content_type": PROMETHEUS_CONTENT_TYPE,
                    "text": self.metrics_text()}
        if op == "sleep":
            # Test/bench hook: occupy an admission slot for a while so
            # backpressure behaviour is observable deterministically.
            if not self.config.debug:
                raise ProtocolError(
                    protocol.UNKNOWN_OP, "op 'sleep' requires debug mode"
                )
            seconds = message.get("seconds", 0.1)
            if not isinstance(seconds, (int, float)) or not 0 <= seconds <= 5:
                raise ProtocolError(
                    protocol.INVALID_ARGUMENT,
                    f"field 'seconds' must be in [0, 5], got {seconds!r}",
                )
            time.sleep(float(seconds))
            return {"slept": float(seconds)}
        raise ProtocolError(protocol.UNKNOWN_OP, f"unknown op: {op!r}")
