"""Pluggable edge-ranking metrics behind one ``topk(metric=...)`` surface.

The paper's experiments rank edges by component-count structural
diversity, but its case studies (Exp-7/8) and the related work map three
sibling problems onto machinery this repo already has: truss-based
structural diversity (Huang/Huang/Xu -- the k-truss peel in
:mod:`repro.analytics.truss`), top-k ego-betweenness (Zhang et al. --
the local variant in :mod:`repro.analytics.betweenness`, with global
Brandes kept as ``betweenness_global``), and the common-neighbor count
that upper-bounds the paper's score.  This module serves them all
through the same engine/cache/batcher: each metric is a
:class:`MetricScorer` registered by name, and every serving-layer
``topk``/``score`` call carries a ``metric`` field that selects one.

The scorer contract
-------------------

* ``score(graph, edge, tau=..., index=...)`` -- one edge's metric value;
* ``topk(graph, k, tau=..., index=...)`` -- the ranked top-k
  ``[(edge, value), ...]`` with a deterministic, mixed-label-safe
  tie-break;
* ``warm(graph)`` -- precompute whatever ``topk`` would need; the
  engine's opt-in background warmer calls it after mutations so the
  next query hits a hot table.

``index``, when provided, is the serving layer's
:class:`~repro.core.maintenance.DynamicESDIndex`; the ``esd`` scorer
answers straight from it (bit-identical to the pre-registry serving
path), every other scorer computes from the graph.

Whole-graph score tables (truss numbers, ego-betweenness) are memoized
against ``graph.revision`` in a **single-flight** cache: concurrent
queries hitting a stale revision share one computation (the first
thread computes, the rest wait -- counted in ``memo_waits`` /
``memo_stampedes_avoided``) instead of each recomputing.  The revision
key is the whole freshness contract: a scorer needs no mutation hook,
because a read after any write sees a new revision and recomputes.  The
truss table is additionally maintained **incrementally**: the memo hands the
previous ``(revision, table)`` to the compute function, which re-peels
only the triangle-connected region around the mutated edges
(``truss_repeels``) and falls back to a full decomposition past a delta
threshold (``truss_rebuilds``) -- the same patch-vs-rebuild policy as
``snapshot_csr``.

Adding a metric is ~50 lines: subclass :class:`MetricScorer`, implement
``score``/``topk``, call :func:`register_metric` -- the protocol field,
cache and single-flight keys, CLI choices, per-metric latency labels and
Prometheus export all follow from the registry.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analytics.betweenness import (
    all_edge_ego_betweenness,
    edge_betweenness,
    edge_ego_betweenness,
)
from repro.analytics.truss import truss_numbers
from repro.core.diversity import (
    all_edge_structural_diversities,
    edge_structural_diversity,
)
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.ordering import edge_sort_key
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.dispatch import kernels_enabled

__all__ = [
    "DEFAULT_METRIC",
    "TRUSS_DELTA_OPS_LIMIT",
    "MetricScorer",
    "EsdScorer",
    "TrussScorer",
    "EgoBetweennessScorer",
    "BetweennessScorer",
    "CommonNeighborsScorer",
    "register_metric",
    "get_metric",
    "metric_names",
    "scorer_stats",
]

#: The metric every surface defaults to: the paper's index-backed
#: component-count structural diversity.
DEFAULT_METRIC = "esd"

#: Largest changelog (in recorded graph ops) the truss scorer absorbs
#: incrementally before falling back to a full re-peel.  Mirrors
#: ``snapshot_csr``'s ``PATCH_OPS_LIMIT``: past this, walking the delta
#: costs more than it saves.
TRUSS_DELTA_OPS_LIMIT = 128


def rank_edges(
    scores: Dict[Edge, Any], k: int
) -> List[Tuple[Edge, Any]]:
    """Top-k of a whole-graph score table, highest first.

    Ties break on the type-tagged :func:`edge_sort_key`, never the raw
    edge tuple, so mixed ``int``/``str`` vertex labels rank
    deterministically instead of raising ``TypeError``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # ``nsmallest(k, ...)`` is the documented equivalent of
    # ``sorted(...)[:k]`` (same order, same tie-breaks) at O(m log k)
    # instead of O(m log m) -- the serving layer asks for k of order 10
    # out of every scored edge, so the full sort was the whole cost of
    # a memo-hit topk.
    return heapq.nsmallest(
        k, scores.items(), key=lambda item: (-item[1], edge_sort_key(item[0]))
    )


class _RevisionMemo:
    """One whole-graph score table, valid for one ``(graph, revision)``,
    with single-flight computation.

    A single slot is enough: the serving layer queries one graph, and a
    different graph (or a newer revision) simply recomputes.  The table
    is treated as immutable by all readers.

    When several threads ask for the same stale ``(graph, revision)``,
    exactly one computes -- the rest wait on a condition variable and
    are served the leader's table (``stampedes_avoided``).  The compute
    callable receives ``(graph, prev)`` where ``prev`` is the superseded
    ``(revision, table)`` pair (or ``None``), which is what lets the
    truss scorer patch instead of rebuild.
    """

    __slots__ = (
        "_compute",
        "_cond",
        "_ref",
        "_revision",
        "_table",
        "_inflight",
        "computes",
        "hits",
        "waits",
        "stampedes_avoided",
    )

    def __init__(
        self,
        compute: Callable[
            [Graph, Optional[Tuple[int, Dict[Edge, Any]]]], Dict[Edge, Any]
        ],
    ) -> None:
        self._compute = compute
        self._cond = threading.Condition()
        self._ref: Optional[weakref.ref] = None
        self._revision = -1
        self._table: Optional[Dict[Edge, Any]] = None
        #: ``(id(graph), revision)`` a leader is currently computing for.
        self._inflight: Optional[Tuple[int, int]] = None
        self.computes = 0
        self.hits = 0
        self.waits = 0
        self.stampedes_avoided = 0

    def _valid_for(self, graph: Graph, revision: int) -> bool:
        return (
            self._ref is not None
            and self._ref() is graph
            and self._revision == revision
            and self._table is not None
        )

    def get(self, graph: Graph) -> Dict[Edge, Any]:
        # The revision is captured once; a mutation racing this read
        # surfaces as a fresh revision on the *next* get.
        revision = graph.revision
        with self._cond:
            while True:
                if self._valid_for(graph, revision):
                    self.hits += 1
                    return self._table
                key = (id(graph), revision)
                if self._inflight != key:
                    break
                # A leader is already computing this exact table.
                self.waits += 1
                self._cond.wait()
                if self._valid_for(graph, revision):
                    self.stampedes_avoided += 1
                    return self._table
                # Leader failed or was superseded: loop and re-decide.
            self._inflight = key
            prev = None
            if (
                self._ref is not None
                and self._ref() is graph
                and self._table is not None
            ):
                prev = (self._revision, self._table)
        try:
            self.computes += 1
            table = self._compute(graph, prev)
        except BaseException:
            with self._cond:
                self._inflight = None
                self._cond.notify_all()
            raise
        with self._cond:
            self._inflight = None
            self._ref = weakref.ref(graph)
            self._revision = revision
            self._table = table
            self._cond.notify_all()
        return table

    def stats(self) -> Dict[str, int]:
        """JSON-ready counters (fed to the ``scorer_memos`` registry source)."""
        return {
            "computes": self.computes,
            "hits": self.hits,
            "waits": self.waits,
            "stampedes_avoided": self.stampedes_avoided,
        }


class MetricScorer:
    """Base class / contract for one pluggable edge metric."""

    #: Registry name; what the ``metric`` protocol field selects.
    name: str = ""
    #: Whether ``tau`` changes this metric's values.  Metrics that
    #: ignore it still accept the parameter (one uniform call surface).
    uses_tau: bool = False

    def score(
        self, graph: Graph, edge: Edge, *, tau: int = 2, index=None
    ) -> Any:
        """The metric value of one edge (0 for an absent edge)."""
        raise NotImplementedError

    def topk(
        self, graph: Graph, k: int, *, tau: int = 2, index=None
    ) -> List[Tuple[Edge, Any]]:
        """Top-k edges, highest metric first, deterministic tie-break."""
        raise NotImplementedError

    def warm(self, graph: Graph) -> None:
        """Precompute whatever :meth:`topk` needs for ``graph``'s current
        revision.  Default no-op; memoized scorers populate their table
        so the engine's background warmer absorbs the recompute off the
        query path."""

    def describe(self) -> Dict[str, Any]:
        """JSON-ready contract summary (shown by docs/CLI introspection)."""
        return {"name": self.name, "uses_tau": self.uses_tau}


class EsdScorer(MetricScorer):
    """The paper's metric: component-count edge structural diversity.

    With a serving ``index`` this answers straight from the maintained
    :class:`~repro.core.maintenance.DynamicESDIndex` -- the exact call
    the engine made before the registry existed, so ``metric=esd``
    results (values, tie order, dict order) are bit-identical to the
    pre-metric serving path.  Incremental maintenance is the index's own
    Algorithms 4/5.
    """

    name = "esd"
    uses_tau = True

    def score(self, graph, edge, *, tau=2, index=None):
        u, v = edge
        if index is not None:
            return index.index.score((u, v), tau)
        if not graph.has_edge(u, v):
            return 0
        return edge_structural_diversity(graph, u, v, tau)

    def topk(self, graph, k, *, tau=2, index=None):
        if index is not None:
            return index.topk(k, tau)
        return rank_edges(all_edge_structural_diversities(graph, tau), k)


class TrussScorer(MetricScorer):
    """Truss-number strength (Huang/Huang/Xu): the largest ``k`` such
    that the edge survives in the k-truss.  ``tau`` is accepted but does
    not parameterize the decomposition.

    The memoized table is maintained incrementally (kernels mode only):
    on a stale read, the scorer walks ``graph.changes_since(prev)`` and
    re-peels just the triangle-connected region around the mutated
    edges.  Exactness argument: a mutation can only change the truss
    number of edges reachable from the mutated edge through chains of
    *changed* edges sharing triangles, and any edge set closed under
    triangle adjacency is self-contained for peeling (all three edges of
    a triangle are mutually triangle-adjacent) -- so peeling the closure
    as its own subgraph reproduces the global truss numbers for every
    edge in it.  Seeding from all edges incident to the touched vertices
    over-approximates the changed set, which only adds work, never
    error.  Past :data:`TRUSS_DELTA_OPS_LIMIT` changelog entries or once
    the region covers more than half the graph, a full re-peel is
    cheaper (``truss_rebuilds``); the differential trace tests assert
    table equality with from-scratch recompute either way.
    """

    name = "truss"

    def __init__(self) -> None:
        self._memo = _RevisionMemo(self._compute)

    def _compute(self, graph, prev):
        if prev is not None and kernels_enabled():
            table = self._repeel(graph, prev)
            if table is not None:
                KERNEL_COUNTERS.truss_repeels += 1
                return table
        KERNEL_COUNTERS.truss_rebuilds += 1
        return truss_numbers(graph)

    def _repeel(self, graph, prev):
        """Patch ``prev``'s table against the changelog, or ``None`` to
        signal that a full rebuild is the better (or only) option."""
        prev_revision, prev_table = prev
        changes = graph.changes_since(prev_revision)
        if changes is None or len(changes) > TRUSS_DELTA_OPS_LIMIT:
            return None
        table = dict(prev_table)
        touched = set()
        for entry in changes:
            tag = entry[0]
            if tag in ("+e", "-e"):
                touched.add(entry[1])
                touched.add(entry[2])
                if tag == "-e":
                    table.pop(canonical_edge(entry[1], entry[2]), None)
            elif tag == "-v":
                u = entry[1]
                touched.add(u)
                for w in entry[2]:
                    touched.add(w)
                    table.pop(canonical_edge(u, w), None)
            # "+v": an isolated vertex closes no triangle.
        # Re-peel region: every live edge incident to a touched vertex,
        # closed under triangle adjacency.  Re-add surviving popped
        # edges' values via the region peel (they are all seeded).
        region = set()
        stack: List[Edge] = []
        for t in touched:
            if t not in graph:
                continue
            for w in graph.neighbors(t):
                edge = canonical_edge(t, w)
                if edge not in region:
                    region.add(edge)
                    stack.append(edge)
        limit = graph.m // 2
        if len(region) > limit:
            return None
        while stack:
            a, b = stack.pop()
            for w in graph.common_neighbors(a, b):
                for other in (canonical_edge(a, w), canonical_edge(b, w)):
                    if other not in region:
                        region.add(other)
                        stack.append(other)
            if len(region) > limit:
                return None
        if region:
            table.update(truss_numbers(Graph(region)))
        return table

    def score(self, graph, edge, *, tau=2, index=None):
        u, v = edge
        if not graph.has_edge(u, v):
            return 0
        return self._memo.get(graph).get(canonical_edge(u, v), 0)

    def topk(self, graph, k, *, tau=2, index=None):
        return rank_edges(self._memo.get(graph), k)

    def warm(self, graph):
        self._memo.get(graph)


class EgoBetweennessScorer(MetricScorer):
    """Ego-betweenness (Zhang et al.): betweenness restricted to the
    edge's 2-hop neighborhood.  The serving-path betweenness -- per-edge
    local intersection work instead of a global ``O(n m)`` Brandes pass;
    the global variant stays available as ``metric=betweenness_global``.
    """

    name = "betweenness"

    def __init__(self) -> None:
        self._memo = _RevisionMemo(
            lambda graph, prev: all_edge_ego_betweenness(graph)
        )

    def score(self, graph, edge, *, tau=2, index=None):
        # Local by construction: answered directly from the edge's
        # neighborhood, never by building the whole-graph table.
        u, v = edge
        if not graph.has_edge(u, v):
            return 0.0
        return edge_ego_betweenness(graph, u, v)

    def topk(self, graph, k, *, tau=2, index=None):
        return rank_edges(self._memo.get(graph), k)

    def warm(self, graph):
        self._memo.get(graph)


class BetweennessScorer(MetricScorer):
    """Normalized *global* edge betweenness (Brandes) -- the ``BT``
    baseline the paper's Exp-7/8 case studies rank against.  Exact but
    whole-graph; serve ``metric=betweenness`` (ego-betweenness) on hot
    paths."""

    name = "betweenness_global"

    def __init__(self) -> None:
        self._memo = _RevisionMemo(
            lambda graph, prev: edge_betweenness(graph)
        )

    def score(self, graph, edge, *, tau=2, index=None):
        u, v = edge
        if not graph.has_edge(u, v):
            return 0.0
        return self._memo.get(graph).get(canonical_edge(u, v), 0.0)

    def topk(self, graph, k, *, tau=2, index=None):
        return rank_edges(self._memo.get(graph), k)

    def warm(self, graph):
        self._memo.get(graph)


class CommonNeighborsScorer(MetricScorer):
    """``|N(u) ∩ N(v)|`` -- the numerator of the paper's common-neighbor
    upper bound, and the classic link-strength baseline."""

    name = "common_neighbors"

    def __init__(self) -> None:
        self._memo = _RevisionMemo(
            lambda graph, prev: {
                canonical_edge(u, v): len(graph.common_neighbors(u, v))
                for u, v in graph.edges()
            }
        )

    def score(self, graph, edge, *, tau=2, index=None):
        # O(min-degree) per edge, straight off the adjacency -- a single
        # score never populates the whole-graph memo.  With kernels
        # enabled the intersection runs on the CSR snapshot (amortized:
        # the snapshot is cached per revision and patched on mutation).
        u, v = edge
        if not graph.has_edge(u, v):
            return 0
        if kernels_enabled():
            from repro.kernels.csr import snapshot_csr
            from repro.kernels.intersect import intersect_count

            csr = snapshot_csr(graph)
            return intersect_count(csr, csr.intern(u), csr.intern(v))
        return len(graph.common_neighbors(u, v))

    def topk(self, graph, k, *, tau=2, index=None):
        return rank_edges(self._memo.get(graph), k)

    def warm(self, graph):
        self._memo.get(graph)


# -- registry ------------------------------------------------------------------

_REGISTRY: Dict[str, MetricScorer] = {}


def register_metric(scorer: MetricScorer, *, replace: bool = False) -> MetricScorer:
    """Register ``scorer`` under its ``name``; returns it (decorator-ish).

    Names are the protocol-level identifiers, so they must be non-empty
    identifiers; re-registering an existing name requires ``replace``.
    """
    name = scorer.name
    if not isinstance(name, str) or not name.isidentifier():
        raise ValueError(
            f"metric name must be a non-empty identifier, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(f"metric {name!r} is already registered")
    _REGISTRY[name] = scorer
    return scorer


def get_metric(name: str) -> MetricScorer:
    """The registered scorer for ``name``; ``ValueError`` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def metric_names() -> List[str]:
    """Sorted names of every registered metric."""
    return sorted(_REGISTRY)


def scorer_stats() -> Dict[str, Dict[str, int]]:
    """Per-metric single-flight memo counters, keyed by metric name.

    Only scorers that own a :class:`_RevisionMemo` appear.  Feeds the
    ``scorer_memos`` registry source (``esd_scorer_memos_*`` in the
    Prometheus text).
    """
    out: Dict[str, Dict[str, int]] = {}
    for name in metric_names():
        memo = getattr(_REGISTRY[name], "_memo", None)
        if isinstance(memo, _RevisionMemo):
            out[name] = memo.stats()
    return out


register_metric(EsdScorer())
register_metric(TrussScorer())
register_metric(EgoBetweennessScorer())
register_metric(BetweennessScorer())
register_metric(CommonNeighborsScorer())
