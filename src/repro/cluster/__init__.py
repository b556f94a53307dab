"""repro.cluster -- replicated serving tier over the ESD query engine.

A cluster is one durable **writer** (:class:`~repro.cluster.writer.WriterNode`,
an :class:`~repro.service.server.ESDServer` that ships its committed WAL
stream), N **read replicas**
(:class:`~repro.cluster.replica.ReplicaNode`, an ``ESDServer`` too,
whose engine is fed by a tailer of that stream and which refuses
mutations), and a **router** (:class:`~repro.cluster.router.Router`,
on a ``selectors`` event loop) that gives clients one address
with read-your-writes version tokens, bounded-staleness replica
eviction, and fail-fast writes when the writer is down.

See ``docs/CLUSTER.md`` for the topology and the consistency model;
``esd cluster start`` boots the whole thing from the command line.
"""

from repro.cluster.eventloop import Channel, EventLoop, Listener
from repro.cluster.replica import ReplicaConfig, ReplicaNode
from repro.cluster.replication import ReplicationPublisher, ReplicationTailer
from repro.cluster.router import Router, RouterConfig
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.cluster.writer import WriterConfig, WriterNode

__all__ = [
    "Channel",
    "ClusterConfig",
    "ClusterSupervisor",
    "EventLoop",
    "Listener",
    "ReplicaConfig",
    "ReplicaNode",
    "ReplicationPublisher",
    "ReplicationTailer",
    "Router",
    "RouterConfig",
    "WriterConfig",
    "WriterNode",
]
