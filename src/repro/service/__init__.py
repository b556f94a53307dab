"""Serving layer: a concurrent top-k query service over one shared index.

The modules compose bottom-up:

=================  =======================================================
``rwlock``         write-preferring readers-writer lock (snapshot reads)
``cache``          LRU result cache keyed by ``(k, τ, graph_version)``
``batcher``        single-flights concurrent identical topk cache misses
``metrics``        per-endpoint counters and latency quantiles
``engine``         :class:`QueryEngine` -- the transport-independent core
``protocol``       JSON line framing, envelopes, error codes
``server``         :class:`ESDServer` -- threaded TCP + admission control
``client``         :class:`ServiceClient` -- blocking line-protocol client
``verify``         offline audit of recorded responses vs fresh recompute
=================  =======================================================

Start a server programmatically::

    from repro.service import ESDServer, ServerConfig

    server = ESDServer(graph, ServerConfig(port=7031)).start()
    host, port = server.address

or from the shell with ``esd serve``; see ``docs/SERVICE.md``.
"""

from repro.service.batcher import TopKBatcher
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError, wait_until_ready
from repro.service.engine import QueryEngine
from repro.service.metrics import MetricsRegistry, percentile
from repro.service.protocol import ProtocolError
from repro.service.rwlock import RWLock
from repro.service.server import ESDServer, ServerConfig

__all__ = [
    "ESDServer",
    "ServerConfig",
    "QueryEngine",
    "ServiceClient",
    "ServiceError",
    "wait_until_ready",
    "TopKBatcher",
    "ResultCache",
    "MetricsRegistry",
    "percentile",
    "RWLock",
    "ProtocolError",
]
