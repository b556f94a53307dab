"""The query engine: one shared DynamicESDIndex behind locks + cache.

:class:`QueryEngine` is the transport-independent core of the service --
the TCP server, the CLI and the in-process tests all talk to it.  It
composes the serving-layer pieces around one
:class:`~repro.core.maintenance.DynamicESDIndex`:

* **snapshot consistency** -- every read runs under the shared side of a
  write-preferring :class:`~repro.service.rwlock.RWLock`, every mutation
  under the exclusive side, so queries never observe a half-applied
  update;
* **result caching** -- top-k answers are cached in an LRU keyed by
  ``(metric, k, τ, graph_version)``; the index's mutation hook purges
  stale versions eagerly and the version component (kept last, which is
  what the purge keys on) makes stale hits impossible (see
  :mod:`repro.service.cache`);
* **single-flight** -- concurrent ``topk`` misses on the same
  ``(metric, k, τ, version)`` share one read-locked computation through
  a :class:`~repro.service.batcher.TopKBatcher`;
* **metric family** -- ``topk``/``score`` take a ``metric`` selector
  resolved through the :mod:`repro.metrics` scorer registry; ``esd``
  (the default) answers straight from the maintained index, the other
  scorers compute from the graph under the same read lock, and each
  metric gets its own labeled latency series (``topk|metric=...``);
* **change feeds** -- standing ``(k, τ)`` queries registered via
  :meth:`watch` are :class:`~repro.core.monitor.TopKMonitor` instances
  attached to the shared index and refreshed inside each update's write
  section;
* **durability** (optional) -- given a
  :class:`~repro.persistence.store.DataDirectory`, every mutation is
  appended to the write-ahead log *before* it is applied (under the same
  exclusive lock, after precondition checks, so a logged record is
  always applicable on replay), and every ``snapshot_interval``
  mutations the engine compacts: snapshot atomically, then truncate the
  WAL.

All public methods return JSON-ready dictionaries (edges as ``[u, v]``
lists) and raise ``ValueError``/``KeyError`` for domain errors, which the
server maps to protocol error codes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.core.maintenance import DynamicESDIndex
from repro.core.monitor import TopKChange, TopKMonitor
from repro.graph.graph import Graph, canonical_edge
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.shm import shm_metrics
from repro.metrics import (
    DEFAULT_METRIC,
    get_metric,
    scorer_stats,
)
from repro.obs.registry import UnifiedRegistry
from repro.obs.sampler import InvariantSampler
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import TRACER
from repro.service.batcher import TopKBatcher
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.rwlock import RWLock


class _Watch:
    """A registered standing query and its undelivered changes."""

    __slots__ = ("monitor", "unread")

    def __init__(self, monitor: TopKMonitor) -> None:
        self.monitor = monitor
        self.unread: List[TopKChange] = []


def _validate_k_tau(k: int, tau: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if isinstance(tau, bool) or not isinstance(tau, int) or tau < 1:
        raise ValueError(f"tau must be an integer >= 1, got {tau!r}")


def _validate_metric(metric: str):
    """Resolve ``metric`` to its registered scorer (ValueError if unknown)."""
    if not isinstance(metric, str):
        raise ValueError(f"metric must be a string, got {metric!r}")
    return get_metric(metric)


def _metric_endpoint(op: str, metric: str) -> str:
    """The labeled endpoint name for per-metric latency/counter series.

    ``"topk|metric=esd"`` renders in Prometheus text exposition as
    ``...{endpoint="topk",metric="esd"}`` (see
    :func:`repro.obs.promtext.render_prometheus`), so each metric of the
    diversity-query family gets its own disjoint request/error/latency
    series while the plain ``op`` endpoint keeps the aggregate.
    """
    return f"{op}|metric={metric}"


def _items(pairs) -> List[List[Any]]:
    """``[((u, v), score), ...] -> [[u, v, score], ...]`` (JSON-ready)."""
    return [[u, v, score] for (u, v), score in pairs]


class QueryEngine:
    """Concurrent façade over one maintained ESD index."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        dynamic_index: Optional[DynamicESDIndex] = None,
        store=None,
        snapshot_interval: int = 1000,
        cache_size: int = 1024,
        slow_query_threshold: float = 0.25,
        slow_log_capacity: int = 128,
        invariant_check_interval: int = 0,
        invariant_sample_size: int = 8,
        warm_metrics: Optional[List[str]] = None,
    ) -> None:
        if (graph is None) == (dynamic_index is None):
            raise ValueError(
                "provide exactly one of graph or dynamic_index"
            )
        if snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        if invariant_check_interval < 0:
            raise ValueError(
                f"invariant_check_interval must be >= 0, got "
                f"{invariant_check_interval}"
            )
        self._dyn = (
            dynamic_index if dynamic_index is not None else DynamicESDIndex(graph)
        )
        self._store = store
        self._snapshot_interval = snapshot_interval
        self._since_snapshot = 0
        self._lock = RWLock()
        self._cache = ResultCache(cache_size)
        self._batcher = TopKBatcher(self._run_batch)
        self.slow_log = SlowQueryLog(
            threshold=slow_query_threshold, capacity=slow_log_capacity
        )

        def _slow_observe(endpoint: str, seconds: float, error: bool) -> None:
            # Per-metric labeled series ("topk|metric=esd") time the same
            # request the aggregate endpoint already timed; only the
            # aggregate feeds the slow-query ring, or every slow query
            # would appear twice.
            if "|" not in endpoint:
                self.slow_log.record(endpoint, seconds, error)

        self.metrics = MetricsRegistry(on_observe=_slow_observe)
        self.sampler: Optional[InvariantSampler] = (
            InvariantSampler(
                self._dyn,
                every=invariant_check_interval,
                sample_size=invariant_sample_size,
            )
            if invariant_check_interval > 0
            else None
        )
        self._watch_lock = threading.Lock()
        self._watches: Dict[int, _Watch] = {}
        self._watch_ids = itertools.count(1)
        self._dyn.subscribe(self._on_mutation)
        # Opt-in background warmer: after mutations, recompute the named
        # scorers' tables off the query path.
        self._warm_metrics: Tuple[str, ...] = tuple(warm_metrics or ())
        for name in self._warm_metrics:
            get_metric(name)  # unknown names fail loudly at construction
        self._warm_cond = threading.Condition()
        self._warm_dirty = False
        self._warm_stop = False
        self._warm_thread: Optional[threading.Thread] = None
        if self._warm_metrics:
            self._warm_thread = threading.Thread(
                target=self._warm_loop,
                name="esd-metric-warmer",
                daemon=True,
            )
            self._warm_thread.start()
        self.obs = self._build_registry()

    # -- plumbing -------------------------------------------------------------

    @property
    def graph_version(self) -> int:
        return self._dyn.graph_version

    @property
    def dynamic_index(self) -> DynamicESDIndex:
        """The underlying index (read-only use; mutate via :meth:`update`)."""
        return self._dyn

    @property
    def store(self):
        """The attached :class:`DataDirectory`, or ``None`` (in-memory)."""
        return self._store

    def read_locked(self):
        """The engine's shared read lock, as a context manager.

        For components that must observe a mutation-free snapshot of
        the index *and* coordinate with the mutation subscribers -- the
        replication publisher exports catch-up state under this lock so
        no committed version can fall between its snapshot and its live
        stream.  Lock ordering: the engine lock is always taken before
        any component-internal lock (the mutation path already holds
        the write side when subscribers run).
        """
        return self._lock.read_locked()

    def install(self, dyn: DynamicESDIndex) -> None:
        """Replace the served index wholesale (a replica's snapshot load).

        Under the write lock: the engine's mutation hook moves to
        ``dyn``, the invariant sampler (if any) follows, and the result
        cache is cleared -- versions of the old index say nothing about
        the new one.  Registered watches stay on the old index (replicas,
        the one caller, refuse ``watch``).
        """
        dyn.subscribe(self._on_mutation)
        with self._lock.write_locked():
            self._dyn = dyn
            if self.sampler is not None:
                self.sampler._dyn = dyn
            self._cache.clear()

    def close(self) -> None:
        """Flush durability state and release file handles.

        On a *clean* shutdown, mutations that arrived since the last
        snapshot are compacted into a fresh one so the next start
        replays nothing.  A crash skips this path by definition -- then
        recovery replays the WAL tail instead.  The background metric
        warmer (if any) is stopped first, outside the engine lock.
        """
        if self._warm_thread is not None:
            with self._warm_cond:
                self._warm_stop = True
                self._warm_cond.notify_all()
            self._warm_thread.join(timeout=5.0)
            self._warm_thread = None
        if self._store is None:
            return
        with self._lock.write_locked():
            if self._since_snapshot > 0:
                self._store.compact(self._dyn)
                self._since_snapshot = 0
            self._store.close()

    def _build_registry(self) -> UnifiedRegistry:
        """Fold every component's stats into one snapshot provider."""
        registry = UnifiedRegistry(self.metrics)
        registry.add_source("cache", self._cache.stats)
        registry.add_source("batcher", self._batcher.stats)
        registry.add_source("lock", self._lock.snapshot)
        registry.add_source("graph_version", lambda: self._dyn.graph_version)
        registry.add_source("core", self._core_counters)
        registry.add_source("kernels", KERNEL_COUNTERS.snapshot)
        registry.add_source("scorer_memos", scorer_stats)
        registry.add_source("shm", shm_metrics)
        registry.add_source("slow_queries", self.slow_log.snapshot)
        registry.add_source(
            "invariant_sampler",
            (self.sampler.status if self.sampler is not None
             else lambda: {"enabled": False}),
        )
        registry.add_source("tracing", TRACER.status)
        if self._store is not None:
            registry.add_source("persistence", self._store.stats)
        return registry

    def _core_counters(self) -> Dict[str, Any]:
        """The core-layer counters of the maintained index."""
        counters = self._dyn.mutation_counters
        return {
            "insertions": counters.insertions,
            "deletions": counters.deletions,
            "edges_rescored": counters.edges_rescored,
        }

    def _on_mutation(self, kind: str, edge, version: int) -> None:
        # Runs under the write lock, once per committed edge update.
        # Scorer tables need no hook: their memos key on graph.revision.
        if self.sampler is not None and self.sampler.on_mutation(version):
            # Violation details live in the sampler's own metrics stanza.
            self.metrics.incr("invariant_checks")
        purged = self._cache.purge_stale(version)
        if purged:
            self.metrics.incr("cache_purged_entries", purged)
        if self._warm_thread is not None:
            with self._warm_cond:
                self._warm_dirty = True
                self._warm_cond.notify_all()

    def _warm_loop(self) -> None:
        """Background warmer: repopulate scorer tables after mutations.

        Waits for a dirty signal, then calls each named scorer's
        ``warm`` under the read lock.  Coalescing is free: however many
        mutations landed while a pass ran, the next pass warms the
        latest revision once.  Best-effort -- a failing scorer is
        counted, not fatal.
        """
        while True:
            with self._warm_cond:
                while not self._warm_dirty and not self._warm_stop:
                    self._warm_cond.wait()
                if self._warm_stop:
                    return
                self._warm_dirty = False
            for name in self._warm_metrics:
                try:
                    with self._lock.read_locked():
                        get_metric(name).warm(self._dyn.graph)
                except Exception:
                    self.metrics.incr("metric_warm_errors")
            self.metrics.incr("metric_warm_passes")

    def _run_batch(self, key: Tuple[str, int, int, int]) -> Dict[str, Any]:
        """Answer one ``(metric, k, τ, version)`` key under the read lock.

        A write may have landed since the caller read ``version``; the
        answer is then computed at the current version, which is never
        older than the one the caller saw.
        """
        metric, k, tau, _ = key
        with TRACER.span("engine.batch") as span:
            with self._lock.read_locked():
                version = self._dyn.graph_version
                cache_key = (metric, k, tau, version)
                hit, payload = self._cache.get(cache_key)
                if not hit:
                    scorer = get_metric(metric)
                    payload = {
                        "items": _items(
                            scorer.topk(
                                self._dyn.graph, k, tau=tau, index=self._dyn
                            )
                        ),
                        "graph_version": version,
                        "metric": metric,
                    }
                    self._cache.put(cache_key, payload)
            span.set(cache_hits=int(hit), graph_version=version)
        return payload

    # -- read endpoints -------------------------------------------------------

    def topk(
        self, k: int = 10, tau: int = 2, metric: str = DEFAULT_METRIC
    ) -> Dict[str, Any]:
        """Top-k query; served from cache or a single-flight computation.

        ``metric`` selects the scorer (see :mod:`repro.metrics`):
        ``esd`` (default, the paper's index-backed structural
        diversity), ``truss``, ``betweenness``, ``common_neighbors``...
        Cache and single-flight keys are both ``(metric, k, τ, version)``,
        so two metrics never share a cache entry or a computation.
        """
        _validate_k_tau(k, tau)
        _validate_metric(metric)
        with self.metrics.timed("topk"), \
                self.metrics.timed(_metric_endpoint("topk", metric)):
            with TRACER.span(
                "engine.topk", k=k, tau=tau, metric=metric
            ) as span:
                # Racy fast path: a hit for the version we just read is
                # valid by keying even if a writer lands concurrently --
                # the answer was current at some instant inside this
                # request.
                key = (metric, k, tau, self._dyn.graph_version)
                hit, payload = self._cache.get(key)
                if hit:
                    span.set(cache="hit", graph_version=key[3])
                    return dict(payload, cached=True, batched=1)
                span.set(cache="miss")
                payload, batch_requests = self._batcher.submit(key)
                span.set(batched=batch_requests)
                return dict(payload, cached=False, batched=batch_requests)

    def score(
        self, u, v, tau: int = 2, metric: str = DEFAULT_METRIC
    ) -> Dict[str, Any]:
        """One edge's metric value at threshold ``tau`` (default: the
        paper's structural diversity, straight from the index)."""
        _validate_k_tau(1, tau)
        scorer = _validate_metric(metric)
        with self.metrics.timed("score"), \
                self.metrics.timed(_metric_endpoint("score", metric)):
            with self._lock.read_locked():
                return {
                    "edge": [u, v],
                    "tau": tau,
                    "metric": metric,
                    "score": scorer.score(
                        self._dyn.graph, (u, v), tau=tau, index=self._dyn
                    ),
                    "in_graph": self._dyn.graph.has_edge(u, v),
                    "graph_version": self._dyn.graph_version,
                }

    def stats(self) -> Dict[str, Any]:
        """Graph/index snapshot: sizes, version, mutation counters."""
        with self.metrics.timed("stats"):
            with self._lock.read_locked():
                graph = self._dyn.graph
                counters = self._dyn.mutation_counters
                return {
                    "n": graph.n,
                    "m": graph.m,
                    "graph_version": self._dyn.graph_version,
                    "mutations": {
                        "insertions": counters.insertions,
                        "deletions": counters.deletions,
                        "total": counters.total,
                    },
                    "index": self._dyn.index.stats(),
                    "watches": len(self._watches),
                }

    # -- write endpoint -------------------------------------------------------

    def update(self, action: str, u, v) -> Dict[str, Any]:
        """Apply one edge mutation under the exclusive lock.

        ``action`` is ``"insert"`` or ``"delete"``.  Registered watches
        are refreshed inside the same write section, so their change
        feeds observe every version exactly once.

        With a persistence store attached, the mutation is WAL-logged
        *before* being applied (write-ahead).  Preconditions are checked
        first under the same exclusive lock, so the log never contains a
        record that would fail on replay; a mutation is only
        acknowledged after its record is durable.
        """
        if action not in ("insert", "delete"):
            raise ValueError(
                f"action must be 'insert' or 'delete', got {action!r}"
            )
        with self.metrics.timed("update"):
            with TRACER.span(
                "engine.update", action=action, edge=[u, v]
            ) as span, self._lock.write_locked():
                if self._store is not None:
                    edge = canonical_edge(u, v)  # rejects self-loops early
                    exists = self._dyn.graph.has_edge(u, v)
                    if action == "insert" and exists:
                        raise ValueError(f"edge already in graph: {edge}")
                    if action == "delete" and not exists:
                        raise KeyError(f"edge not in graph: {edge}")
                    self._store.append_wal(
                        action, u, v, self._dyn.graph_version + 1
                    )
                    self.metrics.incr("wal_appends")
                if action == "insert":
                    stats = self._dyn.insert_edge(u, v)
                else:
                    stats = self._dyn.delete_edge(u, v)
                if self._store is not None:
                    self._since_snapshot += 1
                    if self._since_snapshot >= self._snapshot_interval:
                        self._store.compact(self._dyn)
                        self._since_snapshot = 0
                        self.metrics.incr("snapshots_written")
                version = self._dyn.graph_version
                notified = 0
                with self._watch_lock:
                    for watch in self._watches.values():
                        change = watch.monitor.refresh(action, (u, v))
                        if change.changed:
                            watch.unread.append(change)
                            notified += 1
                span.set(
                    graph_version=version,
                    edges_rescored=stats.edges_rescored,
                    watches_notified=notified,
                )
                return {
                    "applied": True,
                    "action": action,
                    "edge": [u, v],
                    "graph_version": version,
                    "update_stats": {
                        "common_neighbors": stats.common_neighbors,
                        "ego_edges": stats.ego_edges,
                        "edges_rescored": stats.edges_rescored,
                    },
                    "watches_notified": notified,
                }

    # -- change feeds ---------------------------------------------------------

    def watch(
        self, k: int = 10, tau: int = 2, metric: str = DEFAULT_METRIC
    ) -> Dict[str, Any]:
        """Register a standing ``(k, τ)`` query; returns its feed id.

        Watches ride the index's incremental maintenance, which only the
        ``esd`` metric has -- other metrics are rejected rather than
        silently served stale.
        """
        _validate_k_tau(k, tau)
        if metric != DEFAULT_METRIC:
            raise ValueError(
                f"watch supports only metric {DEFAULT_METRIC!r} "
                f"(incrementally maintained); got {metric!r}"
            )
        with self.metrics.timed("watch"):
            with self._lock.read_locked():
                monitor = TopKMonitor.attach(self._dyn, k, tau)
                with self._watch_lock:
                    watch_id = next(self._watch_ids)
                    self._watches[watch_id] = _Watch(monitor)
                return {
                    "watch_id": watch_id,
                    "k": k,
                    "tau": tau,
                    "top": _items(monitor.top),
                    "graph_version": self._dyn.graph_version,
                }

    def changes(self, watch_id: int) -> Dict[str, Any]:
        """Drain the undelivered top-k changes of one watch."""
        with self.metrics.timed("changes"):
            with self._watch_lock:
                watch = self._watches.get(watch_id)
                if watch is None:
                    raise KeyError(f"no such watch: {watch_id}")
                drained, watch.unread = watch.unread, []
            return {
                "watch_id": watch_id,
                "changes": [
                    {
                        "update": change.update,
                        "edge": list(change.edge) if change.edge else None,
                        "entered": _items(change.entered),
                        "left": _items(change.left),
                    }
                    for change in drained
                ],
            }

    def unwatch(self, watch_id: int) -> Dict[str, Any]:
        """Deregister a standing query."""
        with self.metrics.timed("unwatch"):
            with self._watch_lock:
                if self._watches.pop(watch_id, None) is None:
                    raise KeyError(f"no such watch: {watch_id}")
            return {"watch_id": watch_id, "removed": True}

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload, from the unified registry.

        One document folding endpoint latencies and counters with every
        component's stats (cache, batcher, lock, persistence), the
        core-layer counters, the slow-query ring, the invariant-sampler
        status and the tracer state -- see
        :class:`repro.obs.registry.UnifiedRegistry`.
        """
        return self.obs.snapshot()
