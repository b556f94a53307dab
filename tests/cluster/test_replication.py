"""Replication frame codec + publisher/tailer end-to-end tests."""

import functools
import socket
import sys
import threading

import pytest

from tests.conftest import wait_until

from repro.cluster.replication import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_RECORD,
    FRAME_SNAPSHOT,
    FRAME_VERSION,
    ReplicationError,
    ReplicationPublisher,
    ReplicationTailer,
    record_from_payload,
    record_to_payload,
    recv_frame,
    send_frame,
    send_json,
)
from repro.core.maintenance import DynamicESDIndex
from repro.graph.generators import gnm_random
from repro.persistence.wal import WALRecord
from repro.service.engine import QueryEngine


# -- frame codec ---------------------------------------------------------------


def _pair():
    a, b = socket.socketpair()
    return a, b


def test_frame_round_trip_all_types():
    a, b = _pair()
    try:
        for ftype in (FRAME_HELLO, FRAME_SNAPSHOT, FRAME_RECORD,
                      FRAME_VERSION, FRAME_ACK):
            send_frame(a, ftype, b"payload-" + ftype)
            assert recv_frame(b) == (ftype, b"payload-" + ftype)
        send_frame(a, FRAME_VERSION, b"")  # empty payload is legal
        assert recv_frame(b) == (FRAME_VERSION, b"")
    finally:
        a.close()
        b.close()


def test_clean_eof_between_frames_is_none():
    a, b = _pair()
    send_frame(a, FRAME_VERSION, b"{}")
    a.close()
    try:
        assert recv_frame(b) == (FRAME_VERSION, b"{}")
        assert recv_frame(b) is None
    finally:
        b.close()


def test_eof_mid_frame_raises():
    a, b = _pair()
    a.sendall(b"R\x00\x00\x00\x10partial")  # claims 16 bytes, sends 7
    a.close()
    try:
        with pytest.raises(ReplicationError):
            recv_frame(b)
    finally:
        b.close()


def test_unknown_frame_type_raises():
    a, b = _pair()
    a.sendall(b"Z\x00\x00\x00\x00")
    try:
        with pytest.raises(ReplicationError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_record_payload_round_trip():
    record = WALRecord(op="insert", u=3, v=9, version=17)
    a, b = _pair()
    try:
        send_json(a, FRAME_RECORD, record_to_payload(record))
        ftype, payload = recv_frame(b)
        assert ftype == FRAME_RECORD
        assert record_from_payload(payload) == record
    finally:
        a.close()
        b.close()


def test_malformed_record_payload_raises():
    with pytest.raises(ReplicationError):
        record_from_payload(b'{"op": "explode", "u": 1, "v": 2, "ver": 3}')
    with pytest.raises(ReplicationError):
        record_from_payload(b"not json at all")


# -- publisher / tailer --------------------------------------------------------


class TailSink:
    """Minimal replica-side state machine driven by a ReplicationTailer."""

    def __init__(self):
        self.dyn = None
        self.writer_version = -1
        self.lock = threading.Lock()

    def applied(self):
        with self.lock:
            return -1 if self.dyn is None else self.dyn.graph_version

    def on_snapshot(self, state):
        with self.lock:
            self.dyn = DynamicESDIndex.from_state(state)

    def on_record(self, record):
        with self.lock:
            if self.dyn is None or record.version != self.dyn.graph_version + 1:
                return False
            if record.op == "insert":
                self.dyn.insert_edge(record.u, record.v)
            else:
                self.dyn.delete_edge(record.u, record.v)
            return True

    def on_writer_version(self, version):
        self.writer_version = max(self.writer_version, version)

    def tail(self, publisher, name, **kwargs):
        return ReplicationTailer(
            *publisher.address, name=name,
            get_applied=self.applied,
            on_snapshot=self.on_snapshot,
            on_record=self.on_record,
            on_writer_version=self.on_writer_version,
            **kwargs,
        )


#: Bounded predicate polling -- no bare sleeps (see tests/conftest.py).
_wait = functools.partial(wait_until, timeout=10.0, interval=0.01)


@pytest.fixture
def engine():
    instance = QueryEngine(gnm_random(20, 60, seed=5))
    yield instance
    instance.close()


def test_snapshot_then_live_stream(engine):
    publisher = ReplicationPublisher(engine, heartbeat_interval=0.05).start()
    sink = TailSink()
    tailer = sink.tail(publisher, "t1").start()
    try:
        _wait(lambda: sink.applied() == 0, message="initial snapshot")
        assert sink.dyn.topk(5, 2) == engine.dynamic_index.topk(5, 2)
        for i in range(12):
            engine.update("insert", 100 + i, 101 + i)
        _wait(lambda: sink.applied() == 12, message="live records")
        assert sink.dyn.topk(10, 2) == engine.dynamic_index.topk(10, 2)
        assert tailer.snapshots_loaded == 1
        assert tailer.records_applied == 12
        _wait(
            lambda: sink.writer_version >= 12,
            message="version heartbeat",
        )
    finally:
        tailer.stop()
        publisher.stop()


def test_late_joiner_inside_ring_catches_up_with_records_only(engine):
    publisher = ReplicationPublisher(engine, retain=64).start()
    sink = TailSink()
    tailer = sink.tail(publisher, "early").start()
    try:
        _wait(lambda: sink.applied() == 0, message="snapshot")
        tailer.stop()  # disconnect at version 0
        for i in range(10):  # well inside retain=64
            engine.update("insert", 200 + i, 201 + i)
        tailer2 = sink.tail(publisher, "late").start()
        try:
            _wait(lambda: sink.applied() == 10, message="record catch-up")
            # Records only: the rejoin must not have shipped a snapshot.
            assert tailer2.snapshots_loaded == 0
            assert tailer2.records_applied == 10
        finally:
            tailer2.stop()
    finally:
        tailer.stop()
        publisher.stop()


def test_late_joiner_outside_ring_gets_fresh_snapshot(engine):
    publisher = ReplicationPublisher(engine, retain=4).start()
    sink = TailSink()
    tailer = sink.tail(publisher, "early").start()
    try:
        _wait(lambda: sink.applied() == 0, message="snapshot")
        tailer.stop()
        for i in range(20):  # far beyond retain=4: the ring forgot v1..v16
            engine.update("insert", 300 + i, 301 + i)
        tailer2 = sink.tail(publisher, "late").start()
        try:
            _wait(lambda: sink.applied() == 20, message="snapshot catch-up")
            assert tailer2.snapshots_loaded == 1
            assert sink.dyn.topk(10, 2) == engine.dynamic_index.topk(10, 2)
        finally:
            tailer2.stop()
    finally:
        tailer.stop()
        publisher.stop()


def test_tailer_reconnects_after_publisher_restart(engine):
    publisher = ReplicationPublisher(engine).start()
    host, port = publisher.address
    sink = TailSink()
    tailer = sink.tail(publisher, "t", reconnect_backoff=0.05).start()
    try:
        _wait(lambda: sink.applied() == 0, message="first snapshot")
        publisher.stop()
        engine.update("insert", 400, 401)
        # A new publisher on the same port (the engine re-subscribes).
        publisher2 = ReplicationPublisher(engine, host=host, port=port).start()
        try:
            _wait(lambda: sink.applied() == 1, message="resync")
            assert tailer.reconnects >= 1
        finally:
            publisher2.stop()
    finally:
        tailer.stop()


def test_publisher_status_reports_peers(engine):
    publisher = ReplicationPublisher(engine).start()
    sink = TailSink()
    tailer = sink.tail(publisher, "status-peer").start()
    try:
        _wait(lambda: sink.applied() == 0, message="snapshot")
        engine.update("insert", 500, 501)
        _wait(lambda: sink.applied() == 1, message="record")
        _wait(
            lambda: publisher.status()["replicas"]
            .get("status-peer", {}).get("acked_version") == 1,
            message="ack propagation",
        )
        status = publisher.status()
        assert status["version"] == 1
        peer = status["replicas"]["status-peer"]
        assert peer["lag"] == 0
        assert peer["snapshot_sent"] is True
    finally:
        tailer.stop()
        publisher.stop()


def _blocked_in_accept(thread):
    """True once ``thread`` sleeps in the kernel's accept(), not just its
    Python wrapper: closing the listener before the syscall is entered
    fails it at once, which would hide the wake-up bug."""
    frame = sys._current_frames().get(thread.ident)
    names = []
    while frame is not None:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    if "accept" not in names:
        return False
    task = f"/proc/self/task/{thread.native_id}"
    try:
        with open(f"{task}/wchan") as handle:
            wchan = handle.read()
        if wchan not in ("", "0"):
            return "accept" in wchan
        with open(f"{task}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "S"
    except OSError:
        return True  # no procfs: the Python frame is all there is


def test_stop_wakes_accept_thread(engine):
    publisher = ReplicationPublisher(engine).start()
    accept_thread = next(
        t for t in threading.enumerate() if t.name == "esd-repl-accept"
    )
    _wait(lambda: _blocked_in_accept(accept_thread), message="accept() block")
    publisher.stop()
    assert not accept_thread.is_alive()
