"""Index for top-k *vertex* structural diversity (extension).

The paper notes it is "the first work that studies indexing technique to
solve the top-k structural diversity search problem" -- for edges.  The
same machinery transfers verbatim to the original vertex formulation
(Ugander et al.; online algorithms by Huang et al. and Chang et al.),
because the vertex analogue of Observation 1 holds:

    ``(w1, w2)`` is an edge of the vertex ego-network ``G_N(v)``
    iff ``{v, w1, w2}`` is a *triangle* of ``G``.

So where the edge index enumerates 4-cliques and performs six unions,
the vertex index enumerates triangles once each (Ortmann-Brandes
orientation) and performs three unions -- one per triangle vertex.
Everything else (the sorted ``H(c)`` size-class lists, query, back-fill) is
shared with :class:`~repro.core.index.ESDIndex`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cliques.triangles import iter_triangles
from repro.core.index import ESDIndex
from repro.graph.graph import Graph, Vertex


class VertexESDIndex(ESDIndex):
    """Top-k vertex structural diversity index.

    Keys are vertices instead of edges; build with
    :func:`build_vertex_index`, query with the inherited :meth:`topk` /
    :meth:`query`.
    """

    @staticmethod
    def _canon(item):
        return item

    @property
    def vertex_count(self) -> int:
        """Number of vertices with at least one neighbor in the index."""
        return self.edge_count  # inherited counter; keys are vertices here

    def set_vertex(self, v: Vertex, sizes) -> None:
        """Insert/update one vertex's neighborhood component multiset."""
        self.set_edge(v, sizes)

    def remove_vertex(self, v: Vertex) -> None:
        """Drop a vertex from the index (no-op if untracked)."""
        self.remove_edge(v)

    def check_invariants(self, graph: Optional[Graph] = None) -> None:
        """Validate internal consistency and, given ``graph``, ground truth."""
        from repro.graph.components import components_of_subset

        super().check_invariants(None)
        if graph is None:
            return
        tracked = set(self._sizes)
        for v in graph.vertices():
            sizes = sorted(
                len(c) for c in components_of_subset(graph, graph.neighbors(v))
            )
            if sizes:
                assert self.component_sizes(v) == sizes, f"mismatch at {v!r}"
                tracked.discard(v)
            else:
                assert v not in self._sizes, f"phantom vertex {v!r}"
        assert not tracked, f"stale vertices in index: {tracked}"

    def component_sizes(self, v) -> List[int]:
        """Stored component-size multiset of vertex ``v``."""
        hist = self._sizes.get(v)
        if not hist:
            return []
        return sorted(hist.elements())

    def score(self, v, tau: int) -> int:
        """Vertex structural diversity of ``v`` at threshold ``tau``."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        hist = self._sizes.get(v)
        if not hist:
            return 0
        return sum(count for size, count in hist.items() if size >= tau)


def vertex_components_fast(graph: Graph) -> Dict[Vertex, Tuple[dict, dict]]:
    """Per-vertex neighborhood components via single-pass triangle listing.

    Returns raw ``(parent, size)`` union-find pairs, one per vertex with a
    nonempty neighborhood.
    """
    raw: Dict[Vertex, Tuple[dict, dict]] = {}
    for v in graph.vertices():
        nbrs = graph.neighbors(v)
        raw[v] = ({w: w for w in nbrs}, {w: 1 for w in nbrs})

    from repro.core.build import _union_raw  # shared hot-loop helper

    for a, b, c in iter_triangles(graph):
        _union_raw(raw[a], b, c)
        _union_raw(raw[b], a, c)
        _union_raw(raw[c], a, b)
    return raw


def build_vertex_index(graph: Graph) -> VertexESDIndex:
    """Build a :class:`VertexESDIndex` via triangle enumeration."""
    sizes = {
        v: list(size.values())
        for v, (_parent, size) in vertex_components_fast(graph).items()
        if size
    }
    return VertexESDIndex.bulk_load(sizes)
