"""WAL shipping between the cluster writer and its read replicas.

The persistence layer's write-ahead log is already a replication log:
every committed mutation is a self-verifying
:class:`~repro.persistence.wal.WALRecord` whose ``version`` is the
``graph_version`` it produces.  This module ships that stream over TCP
with a small length-prefixed frame protocol:

    offset  size  field
    ------  ----  ---------------------------------------
    0       1     frame type (ASCII byte, below)
    1       4     payload length, big-endian u32
    5       len   payload

======  =========  ====================================================
``H``   ->writer   hello: ``{"name": ..., "applied_version": n}``
                   (``-1`` = no state, always triggers a snapshot)
``S``   ->replica  snapshot: the exact bytes of a
                   :func:`~repro.persistence.snapshot.encode_snapshot`
                   container, version ``Vs`` -- load via ``from_state``
``R``   ->replica  record: one WAL record payload
                   ``{"op", "u", "v", "ver"}``
``V``   ->replica  version heartbeat: ``{"version": n}`` -- lets an
                   idle replica measure replication lag
``A``   ->writer   ack: ``{"applied_version": n}``
======  =========  ====================================================

Catch-up contract (:class:`ReplicationPublisher`): the writer retains
the most recent ``retain`` committed records in memory.  A replica
whose ``applied_version`` still falls inside that window resumes with
records only; anything older (or a fresh replica) gets a full snapshot
exported under the engine's read lock, followed by every record
committed after it.  Because the peer is registered while that lock is
held, no committed version can fall between the snapshot and the live
stream -- the same no-gap argument the crash-recovery path makes on
disk.

Replay on the replica (:class:`ReplicationTailer` driving
:class:`~repro.core.maintenance.DynamicESDIndex` through the
maintenance path) is self-verifying exactly like WAL recovery: applying
record ``ver`` must move the replica to ``graph_version == ver``, and
any gap forces a reconnect (whose hello then requests a snapshot if
needed).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import deque
from queue import Empty, Full, Queue
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.trace import TRACER
from repro.persistence.snapshot import encode_snapshot
from repro.persistence.wal import WALRecord

__all__ = [
    "ReplicationError",
    "ReplicationPublisher",
    "ReplicationTailer",
    "recv_frame",
    "send_frame",
]

_FRAME = struct.Struct(">cI")

FRAME_HELLO = b"H"
FRAME_SNAPSHOT = b"S"
FRAME_RECORD = b"R"
FRAME_VERSION = b"V"
FRAME_ACK = b"A"

_FRAME_TYPES = frozenset(
    {FRAME_HELLO, FRAME_SNAPSHOT, FRAME_RECORD, FRAME_VERSION, FRAME_ACK}
)

#: Hard cap on one frame's payload (snapshots of a big graph are the
#: largest legitimate frame; anything beyond this is a framing error).
MAX_FRAME_BYTES = 1 << 30


class ReplicationError(RuntimeError):
    """A replication peer spoke the protocol wrong."""


def send_frame(sock: socket.socket, ftype: bytes, payload: bytes) -> None:
    """Write one frame; raises ``OSError`` on a dead connection."""
    sock.sendall(_FRAME.pack(ftype, len(payload)) + payload)


def send_json(sock: socket.socket, ftype: bytes, obj: Any) -> None:
    send_frame(
        sock,
        ftype,
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8"),
    )


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    """Read exactly ``size`` bytes; ``None`` on clean EOF at offset 0."""
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == size:
                return None
            raise ReplicationError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Tuple[bytes, bytes]]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`ReplicationError` on an unknown type or implausible
    length, ``OSError``/``socket.timeout`` on transport trouble.
    """
    header = _recv_exact(sock, _FRAME.size)
    if header is None:
        return None
    ftype, length = _FRAME.unpack(header)
    if ftype not in _FRAME_TYPES:
        raise ReplicationError(f"unknown replication frame type {ftype!r}")
    if length > MAX_FRAME_BYTES:
        raise ReplicationError(f"implausible frame length {length}")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ReplicationError("connection closed mid-frame")
    return ftype, payload


def _json_payload(payload: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ReplicationError(f"malformed frame payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ReplicationError("frame payload must be a JSON object")
    return obj


def record_to_payload(record: WALRecord) -> Dict[str, Any]:
    return {"op": record.op, "u": record.u, "v": record.v,
            "ver": record.version}


def record_from_payload(payload: bytes) -> WALRecord:
    obj = _json_payload(payload)
    if obj.get("op") not in ("insert", "delete") or not isinstance(
        obj.get("ver"), int
    ):
        raise ReplicationError(f"malformed record frame: {obj!r}")
    return WALRecord(op=obj["op"], u=obj["u"], v=obj["v"], version=obj["ver"])


class _Peer:
    """Writer-side state for one connected replica."""

    __slots__ = (
        "name", "sock", "addr", "queue", "acked_version", "last_ack",
        "connected_at", "snapshot_sent", "records_sent", "dead",
    )

    def __init__(self, name: str, sock: socket.socket, addr, max_queue: int):
        self.name = name
        self.sock = sock
        self.addr = addr
        self.queue: "Queue[WALRecord]" = Queue(maxsize=max_queue)
        self.acked_version = -1
        self.last_ack = time.monotonic()
        self.connected_at = time.monotonic()
        self.snapshot_sent = False
        self.records_sent = 0
        self.dead = False

    def kill(self) -> None:
        self.dead = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class ReplicationPublisher:
    """Writer side: accept replicas, ship snapshot + WAL stream.

    Subscribes to the engine's :class:`DynamicESDIndex` mutation feed --
    the callback runs under the engine's exclusive write lock, right
    after the mutation was WAL-logged and applied, so the published
    stream is exactly the committed WAL order.  Each peer gets a
    bounded queue; a replica too slow to drain it is disconnected (it
    will reconnect and catch up via the ring or a snapshot) rather than
    letting the writer buffer without bound.
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        retain: int = 4096,
        heartbeat_interval: float = 0.5,
        max_queue: int = 16384,
    ) -> None:
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self._engine = engine
        self._retain = retain
        self._heartbeat = heartbeat_interval
        self._max_queue = max_queue
        self._mutex = threading.Lock()
        self._ring: Deque[WALRecord] = deque()
        self._ring_base = engine.graph_version
        self._version = engine.graph_version
        self._peers: Dict[int, _Peer] = {}
        self._peer_ids = iter(range(1, 1 << 62)).__next__
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        self.snapshots_sent = 0
        self.records_published = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        engine.dynamic_index.subscribe(self._on_commit)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="esd-repl-accept", daemon=True
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ReplicationPublisher":
        if not self._accept_thread.is_alive() and not self._stopped.is_set():
            self._accept_thread.start()
        return self

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() makes that accept() fail at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._mutex:
            peers = list(self._peers.values())
        for peer in peers:
            peer.kill()
        if self._accept_thread.is_alive():
            self._accept_thread.join(timeout=2)

    # -- publish side ----------------------------------------------------------

    def _on_commit(self, kind: str, edge, version: int) -> None:
        # Runs under the engine's write lock: ring append + fan-out are
        # atomic with the commit, so peers registered under the read
        # lock can never miss a version.
        record = WALRecord(op=kind, u=edge[0], v=edge[1], version=version)
        with self._mutex:
            self._version = version
            self._ring.append(record)
            while len(self._ring) > self._retain:
                self._ring_base = self._ring.popleft().version
            self.records_published += 1
            for peer in self._peers.values():
                if peer.dead:
                    continue
                try:
                    peer.queue.put_nowait(record)
                except Full:
                    peer.kill()  # reconnect-and-catch-up beats unbounded RAM

    # -- accept / per-peer service ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_peer, args=(sock, addr),
                name="esd-repl-peer", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_peer(self, sock: socket.socket, addr) -> None:
        peer: Optional[_Peer] = None
        try:
            sock.settimeout(5.0)
            frame = recv_frame(sock)
            if frame is None or frame[0] != FRAME_HELLO:
                raise ReplicationError("expected hello frame")
            hello = _json_payload(frame[1])
            applied = hello.get("applied_version")
            if not isinstance(applied, int):
                raise ReplicationError(f"malformed hello: {hello!r}")
            name = str(hello.get("name") or f"{addr[0]}:{addr[1]}")
            # Under the engine read lock no commit can land, so the
            # snapshot/backlog decision plus peer registration is
            # atomic with respect to the stream.
            with self._engine.read_locked():
                current = self._engine.graph_version
                with self._mutex:
                    snapshot_bytes: Optional[bytes] = None
                    if self._ring_base <= applied <= current:
                        backlog = [
                            r for r in self._ring if r.version > applied
                        ]
                    else:
                        with TRACER.span(
                            "repl.snapshot", version=current, peer=name
                        ):
                            snapshot_bytes = encode_snapshot(
                                self._engine.dynamic_index.export_state()
                            )
                        backlog = []
                    peer = _Peer(name, sock, addr, self._max_queue)
                    peer.acked_version = applied
                    self._peers[self._peer_ids()] = peer
            sock.settimeout(None)
            ack_thread = threading.Thread(
                target=self._ack_loop, args=(peer,),
                name="esd-repl-ack", daemon=True,
            )
            ack_thread.start()
            with TRACER.span(
                "repl.stream", peer=name,
                mode="snapshot" if snapshot_bytes is not None else "records",
            ):
                if snapshot_bytes is not None:
                    send_frame(peer.sock, FRAME_SNAPSHOT, snapshot_bytes)
                    peer.snapshot_sent = True
                    self.snapshots_sent += 1
                for record in backlog:
                    send_json(
                        peer.sock, FRAME_RECORD, record_to_payload(record)
                    )
                    peer.records_sent += 1
            send_json(peer.sock, FRAME_VERSION, {"version": current})
            self._sender_loop(peer)
        except (OSError, ReplicationError):
            pass
        finally:
            if peer is not None:
                self._remove_peer(peer)
            else:
                try:
                    sock.close()
                except OSError:
                    pass

    def _sender_loop(self, peer: _Peer) -> None:
        while not peer.dead and not self._stopped.is_set():
            try:
                record = peer.queue.get(timeout=self._heartbeat)
            except Empty:
                send_json(
                    peer.sock, FRAME_VERSION, {"version": self._version}
                )
                continue
            send_json(peer.sock, FRAME_RECORD, record_to_payload(record))
            peer.records_sent += 1

    def _ack_loop(self, peer: _Peer) -> None:
        try:
            while not peer.dead:
                frame = recv_frame(peer.sock)
                if frame is None:
                    break
                ftype, payload = frame
                if ftype != FRAME_ACK:
                    break
                ack = _json_payload(payload)
                version = ack.get("applied_version")
                if isinstance(version, int):
                    peer.acked_version = max(peer.acked_version, version)
                    peer.last_ack = time.monotonic()
        except (OSError, ReplicationError):
            pass
        finally:
            peer.kill()  # wakes the sender out of its queue wait

    def _remove_peer(self, peer: _Peer) -> None:
        peer.kill()
        with self._mutex:
            for key, value in list(self._peers.items()):
                if value is peer:
                    del self._peers[key]

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._mutex:
            peers = list(self._peers.values())
            ring_len = len(self._ring)
            ring_base = self._ring_base
            version = self._version
        now = time.monotonic()
        return {
            "address": list(self.address),
            "version": version,
            "retained_records": ring_len,
            "retained_base_version": ring_base,
            "records_published": self.records_published,
            "snapshots_sent": self.snapshots_sent,
            "replicas": {
                peer.name: {
                    "acked_version": peer.acked_version,
                    "lag": max(0, version - peer.acked_version),
                    "snapshot_sent": peer.snapshot_sent,
                    "records_sent": peer.records_sent,
                    "connected_seconds": round(now - peer.connected_at, 3),
                    "last_ack_seconds": round(now - peer.last_ack, 3),
                }
                for peer in peers
                if not peer.dead
            },
        }


class ReplicationTailer:
    """Replica side: maintain the connection to the writer's publisher.

    Runs on a daemon thread of its own, apart from the replica's serve
    threads; only the replication client blocks here.  The three
    callbacks run on this thread:

    * ``on_snapshot(state_dict)`` -- replace the replica's whole state;
    * ``on_record(record) -> bool`` -- apply one mutation; returning
      ``False`` signals a gap/out-of-sync state and forces a reconnect
      (whose hello will request a snapshot when needed);
    * ``on_writer_version(v)`` -- heartbeat, for lag accounting.

    ``get_applied()`` supplies the hello's ``applied_version`` (``-1``
    when the replica has no state yet).
    """

    def __init__(
        self,
        writer_host: str,
        writer_port: int,
        *,
        name: str,
        get_applied: Callable[[], int],
        on_snapshot: Callable[[Dict[str, Any]], None],
        on_record: Callable[[WALRecord], bool],
        on_writer_version: Callable[[int], None],
        reconnect_backoff: float = 0.2,
        max_backoff: float = 2.0,
        recv_timeout: float = 5.0,
    ) -> None:
        self._writer = (writer_host, writer_port)
        self._name = name
        self._get_applied = get_applied
        self._on_snapshot = on_snapshot
        self._on_record = on_record
        self._on_writer_version = on_writer_version
        self._backoff = reconnect_backoff
        self._max_backoff = max_backoff
        self._recv_timeout = recv_timeout
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._thread = threading.Thread(
            target=self._run, name=f"esd-tail-{name}", daemon=True
        )
        self.connected = False
        self.reconnects = 0
        self.snapshots_loaded = 0
        self.records_applied = 0

    def start(self) -> "ReplicationTailer":
        if not self._thread.is_alive() and not self._stop.is_set():
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread.is_alive():
            self._thread.join(timeout=2)

    # -- internals -------------------------------------------------------------

    def _run(self) -> None:
        backoff = self._backoff
        while not self._stop.is_set():
            try:
                self._session()
                backoff = self._backoff  # a session ran: reset the backoff
            except (OSError, ReplicationError):
                pass
            if self._stop.is_set():
                return
            self.connected = False
            self.reconnects += 1
            self._stop.wait(backoff)
            backoff = min(self._max_backoff, backoff * 2)

    def _session(self) -> None:
        from repro.persistence.snapshot import decode_snapshot

        sock = socket.create_connection(self._writer, timeout=2.0)
        self._sock = sock
        try:
            sock.settimeout(self._recv_timeout)
            send_json(
                sock, FRAME_HELLO,
                {"name": self._name, "applied_version": self._get_applied()},
            )
            self.connected = True
            while not self._stop.is_set():
                frame = recv_frame(sock)
                if frame is None:
                    return
                ftype, payload = frame
                if ftype == FRAME_SNAPSHOT:
                    state = decode_snapshot(payload)
                    self._on_snapshot(state)
                    self.snapshots_loaded += 1
                    send_json(
                        sock, FRAME_ACK,
                        {"applied_version": self._get_applied()},
                    )
                elif ftype == FRAME_RECORD:
                    record = record_from_payload(payload)
                    if not self._on_record(record):
                        return  # out of sync: reconnect renegotiates
                    self.records_applied += 1
                    send_json(
                        sock, FRAME_ACK,
                        {"applied_version": self._get_applied()},
                    )
                elif ftype == FRAME_VERSION:
                    version = _json_payload(payload).get("version")
                    if isinstance(version, int):
                        self._on_writer_version(version)
                # Any other frame type from the writer is ignored.
        finally:
            self.connected = False
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    def status(self) -> Dict[str, Any]:
        return {
            "writer": list(self._writer),
            "connected": self.connected,
            "reconnects": self.reconnects,
            "snapshots_loaded": self.snapshots_loaded,
            "records_applied": self.records_applied,
        }
