"""A read replica: an :class:`ESDServer` fed by the writer's WAL stream.

:class:`ReplicaNode` *is* an :class:`~repro.service.server.ESDServer`,
as :class:`~repro.cluster.writer.WriterNode` is -- same engine, cache,
batcher, admission control, metrics and request path -- whose state
arrives exclusively from the writer through a
:class:`~repro.cluster.replication.ReplicationTailer`: a snapshot
(loaded via ``from_state``, skipping the 4-clique build, and installed
with :meth:`~repro.service.engine.QueryEngine.install`) and then the
live WAL record stream, applied through the engine's ``update`` -- the
same maintenance path the writer used.  So a replica at applied
version ``v`` holds the bit-identical index the writer held at ``v``
and serves snapshot-consistent ``topk``/``score``/``stats`` at exactly
that version.

The replica adds only role policy on top of the server's dispatch:
mutating ops are answered with the structured ``read_only`` error;
reads before the first snapshot, or carrying a ``min_version`` token
newer than the applied version, are answered ``unavailable`` so the
router can retry elsewhere (bounded staleness is enforced at the
router; the token check here makes read-your-writes robust even
against a stale router view).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Any, Dict

from repro.core.maintenance import DynamicESDIndex
from repro.graph.graph import Graph
from repro.obs.trace import TRACER
from repro.persistence.wal import WALRecord
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.server import ESDServer, ServerConfig
from repro.cluster.replication import ReplicationTailer
from repro.cluster.router import READ_OPS, WRITE_OPS


@dataclass
class ReplicaConfig(ServerConfig):
    """A :class:`ServerConfig` plus the replication tailer's tunables."""

    _: KW_ONLY
    writer_host: str
    writer_repl_port: int
    name: str = "replica"
    reconnect_backoff: float = 0.2
    #: Shared-memory namespace for snapshot CSR segments (empty =
    #: per-replica private kernels, no shared segments).  All replicas
    #: of one cluster get the same namespace from the supervisor: the
    #: first to install snapshot version ``v`` publishes
    #: ``<namespace>-v<v>`` and the rest map it read-only.
    shm_namespace: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.data_dir is not None:
            raise ValueError(
                "a replica takes its state only from the writer; "
                "data_dir must be None"
            )


class ReplicaNode(ESDServer):
    """One read replica process/thread (see module docstring)."""

    def __init__(self, config: ReplicaConfig) -> None:
        self._applied = -1
        self._writer_version = -1
        self._segment = None  #: shared CSR segment of the applied snapshot
        super().__init__(Graph(), config)
        self._tailer = ReplicationTailer(
            config.writer_host, config.writer_repl_port,
            name=config.name,
            get_applied=lambda: self._applied,
            on_snapshot=self._load_snapshot,
            on_record=self._apply_record,
            on_writer_version=self._note_writer_version,
            reconnect_backoff=config.reconnect_backoff,
        )
        self.engine.obs.add_source("replication", self.replication_status)
        # The empty bootstrap index is at version 0; a replica with no
        # snapshot yet must report -1, as cluster-info does.
        self.engine.obs.add_source("graph_version", lambda: self._applied)

    # -- lifecycle -------------------------------------------------------------

    @property
    def applied_version(self) -> int:
        """The replica's applied ``graph_version`` (``-1`` = no state)."""
        return self._applied

    def serve_forever(self) -> None:
        self._tailer.start()
        super().serve_forever()

    def start(self) -> "ReplicaNode":
        self._tailer.start()
        super().start()
        return self

    def shutdown(self, join_timeout: float = 5.0) -> None:
        self._tailer.stop()
        super().shutdown(join_timeout)
        self._release_segment()

    # -- replication callbacks (tailer thread) ---------------------------------

    def _load_snapshot(self, state: Dict[str, Any]) -> None:
        with TRACER.span(
            "cluster.load_snapshot", version=state["graph_version"]
        ):
            dyn = DynamicESDIndex.from_state(state)
            self._seed_kernel(dyn, state)
        self.engine.install(dyn)
        self._applied = dyn.graph_version
        self.engine.metrics.incr("snapshots_loaded")

    def _seed_kernel(self, dyn: DynamicESDIndex, state: Dict[str, Any]) -> None:
        """Install the snapshot CSR as a shared segment; seed the kernel.

        With a namespace configured, replicas of one cluster share one
        read-only CSR segment per snapshot version: the first installer
        builds it straight from the state's edge list
        (:func:`~repro.persistence.snapshot.csr_from_state`) and
        publishes; the rest attach and map.  Either way the replica's
        maintenance kernel adopts the segment's id space, so replication
        records apply through the same id-space path the writer used --
        no per-replica snapshot rebuild on the first mutation.  Any
        failure falls back to the lazy per-replica kernel; serving
        correctness never depends on shared memory.
        """
        from repro.kernels.dispatch import kernels_enabled

        if not kernels_enabled():
            return
        from repro.kernels import shm
        from repro.kernels.delta import MaintenanceKernel
        from repro.persistence.snapshot import csr_from_state

        if not self.config.shm_namespace or not shm.shm_available():
            return
        name = f"{self.config.shm_namespace}-v{state['graph_version']}"
        try:
            segment, created = shm.create_or_attach(
                name, lambda: csr_from_state(state)
            )
            dyn.adopt_kernel(
                MaintenanceKernel.from_csr(segment.csr(), dyn.graph.revision)
            )
        except Exception:
            self.engine.metrics.incr("shm_seed_failures")
            return
        self._release_segment()
        self._segment = segment
        self.engine.metrics.incr(
            "shm_segments_published" if created else "shm_segments_mapped"
        )

    def _release_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        if segment.creator:
            segment.destroy()
        else:
            segment.detach()

    def _apply_record(self, record: WALRecord) -> bool:
        # The tailer thread is the engine's only writer, so the version
        # checks need no lock; the engine takes its own for the apply.
        if self._applied < 0:
            return False
        if record.version <= self._applied:
            return True  # duplicate delivery is harmless
        if record.version != self._applied + 1:
            self.engine.metrics.incr("replication_gaps")
            return False
        with TRACER.span("cluster.apply", op=record.op, version=record.version):
            try:
                self.engine.update(record.op, record.u, record.v)
            except (ValueError, KeyError):
                # A record the state cannot absorb means we diverged:
                # force a snapshot-resync rather than guessing.
                self.engine.metrics.incr("replication_gaps")
                self._applied = -1
                return False
        self._applied = self.engine.graph_version
        self.engine.metrics.incr("records_applied")
        return True

    def _note_writer_version(self, version: int) -> None:
        self._writer_version = max(self._writer_version, version)

    def replication_status(self) -> Dict[str, Any]:
        writer_version = max(self._writer_version, self._applied)
        return {
            "applied_version": self._applied,
            "writer_version": writer_version,
            "lag": (
                max(0, writer_version - self._applied)
                if self._applied >= 0
                else None
            ),
            "tailer": self._tailer.status(),
        }

    # -- role policy over the server's dispatch --------------------------------

    def _dispatch(self, message: Dict[str, Any]) -> Any:
        op = message["op"]
        if op in WRITE_OPS:
            raise ProtocolError(
                protocol.READ_ONLY,
                f"op {op!r} mutates state; replicas are read-only -- "
                "send it to the router or the writer",
            )
        if op == "cluster-info":
            return dict(
                self.replication_status(),
                role="replica",
                name=self.config.name,
                graph_version=self._applied,
            )
        if op in READ_OPS:
            self._check_version(message)
        result = super()._dispatch(message)
        if op == "stats":
            result.update(role="replica", replication=self.replication_status())
        return result

    def _check_version(self, message: Dict[str, Any]) -> None:
        """Refuse a read the applied state cannot answer at its token."""
        if self._applied < 0:
            raise ProtocolError(
                protocol.UNAVAILABLE,
                "replica has no state yet (awaiting writer snapshot)",
            )
        min_version = protocol.int_field(
            message, "min_version", default=0, minimum=0
        )
        if self._applied < min_version:
            raise ProtocolError(
                protocol.UNAVAILABLE,
                f"replica at version {self._applied} is behind the "
                f"requested min_version {min_version}",
            )
