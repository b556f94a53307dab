"""The ESDIndex structure and its query algorithm (paper §IV-A/B).

For every component size ``c`` that occurs in some edge ego-network
(``c ∈ C``), the index keeps a list ``H(c)`` of all edges whose
ego-network has a component of size >= ``c``, sorted by the edge's
structural diversity at threshold ``c``.  The paper stores each
``H(c)`` in a "self-balance binary search tree"; here it is a plain
Python list of ``(-score, edge)`` keys kept sorted with :mod:`bisect`
(``list.insert``/``del`` memmove is cheaper than a hand-written tree at
every class size the datasets reach).  A top-k query is: binary-search
the smallest ``c* ∈ C`` with ``c* >= τ`` (Theorem 4 guarantees scores at
τ and c* coincide), then slice the first k entries of ``H(c*)`` --
``O(k + log n)`` total (Theorem 5's ``O(k log m + log n)`` assumes a
tree walk).

Beyond the paper's static picture, this implementation keeps the
per-edge component-size histograms inside the index.  That makes two
things possible:

* ``set_edge``/``remove_edge`` for dynamic maintenance (Algorithms 4/5);
* correct *class back-fill*: when an update introduces a component size
  ``c`` never seen before (the paper's Example 7 creates ``H(3)``), every
  existing edge with a component >= c must enter the new list, otherwise
  τ = c queries would miss them.  The paper does not spell this step out,
  but Theorem 4's correctness argument requires it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge
from repro.obs.trace import TRACER


class ESDIndex:
    """Top-k edge structural diversity index.

    Build with :func:`repro.core.build.build_index_basic` /
    :func:`~repro.core.build.build_index_fast` (or incrementally through
    :meth:`set_edge`); query with :meth:`topk` / :meth:`query`.
    """

    #: Canonicalization hook for keyed items.  The edge index normalizes
    #: to (small, large); the vertex variant (repro.core.vertex_index)
    #: overrides this with the identity.
    @staticmethod
    def _canon(item):
        return canonical_edge(*item)

    def __init__(self) -> None:
        # c -> H(c), keyed by (-score_at_c, edge) so ascending = best first.
        self._classes: Dict[int, List[Tuple[int, Edge]]] = {}
        self._class_keys: List[int] = []  # sorted members of C
        # edge -> Counter{component size: multiplicity}
        self._sizes: Dict[Edge, Counter] = {}
        # size -> number of edges whose multiset contains that exact size
        self._support: Counter = Counter()

    # -- inspection -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of edges with a nonempty ego-network in the index."""
        return len(self._sizes)

    @property
    def size_classes(self) -> List[int]:
        """The sorted set ``C`` of occurring component sizes."""
        return list(self._class_keys)

    @property
    def entry_count(self) -> int:
        """Total entries across all ``H(c)`` -- the index size of Fig. 6(a),
        bounded by ``O(α m)`` (Theorem 3)."""
        return sum(len(keys) for keys in self._classes.values())

    def component_sizes(self, edge: Edge) -> List[int]:
        """Stored component-size multiset of ``edge`` ([] if untracked)."""
        hist = self._sizes.get(self._canon(edge))
        if not hist:
            return []
        return sorted(hist.elements())

    def score(self, edge: Edge, tau: int) -> int:
        """Structural diversity of ``edge`` at threshold ``tau`` (O(|C_uv|))."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        hist = self._sizes.get(self._canon(edge), None)
        if not hist:
            return 0
        return sum(count for size, count in hist.items() if size >= tau)

    def class_list(self, c: int) -> List[Tuple[Edge, int]]:
        """The full sorted content of ``H(c)`` as ``[(edge, score), ...]``."""
        return [(edge, -neg) for neg, edge in self._classes.get(c, ())]

    # -- queries ----------------------------------------------------------------

    def topk(self, k: int, tau: int) -> List[Tuple[Edge, int]]:
        """Top-k edges with the highest structural diversity at ``tau``.

        Implements §IV-B: binary search for the smallest ``c* ∈ C`` with
        ``c* >= τ``, then the first k entries of ``H(c*)``.  Returns fewer
        than ``k`` pairs when fewer edges have a positive score (edges with
        score 0 are by definition in no ``H(c)``).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        with TRACER.span("index.topk", k=k, tau=tau) as span:
            pos = bisect_left(self._class_keys, tau)
            if pos == len(self._class_keys):
                span.set(c_star=None, results=0)
                return []
            c_star = self._class_keys[pos]
            results = [(edge, -neg) for neg, edge in self._classes[c_star][:k]]
            span.set(c_star=c_star, results=len(results))
            return results

    def query(self, k: int, tau: int) -> List[Edge]:
        """Like :meth:`topk` but returning edges only."""
        return [edge for edge, _ in self.topk(k, tau)]

    def iter_ranked(self, tau: int):
        """Lazily yield ``(edge, score)`` in non-increasing score order.

        Useful when the consumer decides on the fly how many results it
        needs; each step is O(1) over the sorted ``H(c*)`` list.
        """
        for neg, edge in self._ranked_keys(tau):
            yield edge, -neg

    def edges_with_score_at_least(
        self, threshold: int, tau: int
    ) -> List[Tuple[Edge, int]]:
        """All edges whose structural diversity at ``tau`` is >= threshold.

        A prefix of the relevant ``H(c*)`` list, cut by one bisect: keys
        are ``(-score, edge)``, so ``(1 - threshold,)`` sorts after every
        key scoring >= threshold and before every other -- O(result + log m).
        """
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        keys = self._ranked_keys(tau)
        cut = bisect_left(keys, (1 - threshold,))
        return [(edge, -neg) for neg, edge in keys[:cut]]

    def _ranked_keys(self, tau: int) -> List[Tuple[int, Edge]]:
        """``H(c*)`` for the smallest ``c* ∈ C`` with ``c* >= tau``."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        pos = bisect_left(self._class_keys, tau)
        if pos == len(self._class_keys):
            return []
        return self._classes[self._class_keys[pos]]

    # -- mutation -----------------------------------------------------------

    def set_edge(self, edge: Edge, sizes: Iterable[int]) -> None:
        """Insert or update ``edge`` with its component-size multiset.

        Surgical: only the ``H(c)`` lists where the edge's key
        ``(-score_at_c, edge)`` actually changes are touched.  A typical
        maintenance update grows or shrinks one component by one member,
        which shifts the score in a single class -- the other classes
        keep their lists byte-for-byte intact instead of paying a
        remove+reinsert of an identical key.  Creates (with back-fill)
        and drops size classes as the global ``C`` changes.
        """
        edge = self._canon(edge)
        new_hist = Counter(sizes)
        if any(s < 1 for s in new_hist):
            raise ValueError(f"component sizes must be >= 1, got {sorted(new_hist)}")
        old_hist = self._sizes.pop(edge, None)
        vanished = self._update_support(old_hist, new_hist)
        if new_hist:
            self._sizes[edge] = new_hist
        self._update_entries(edge, old_hist, new_hist, set(vanished))
        self._create_new_classes(new_hist, old_hist)
        self._drop_classes(vanished)

    def remove_edge(self, edge: Edge) -> None:
        """Remove ``edge`` from the index entirely (no-op if untracked)."""
        edge = self._canon(edge)
        old_hist = self._sizes.pop(edge, None)
        if old_hist is None:
            return
        vanished = self._update_support(old_hist, Counter())
        self._update_entries(edge, old_hist, Counter(), set(vanished))
        self._drop_classes(vanished)

    @classmethod
    def bulk_load(cls, sizes: Dict[Edge, Iterable[int]]) -> "ESDIndex":
        """Build an index from per-edge size multisets in one pass.

        Equivalent to calling :meth:`set_edge` per edge but avoids the
        repeated class back-fill: the global ``C`` is known up front, so
        every edge is inserted into each of its lists exactly once
        (Algorithm 2 lines 5-15).
        """
        index = cls()
        hists = {}
        canon = cls._canon
        for edge, edge_sizes in sizes.items():
            # Most real-world edges have an empty ego-network; skipping
            # them before Counter() avoids its per-call abc machinery,
            # which dominates bulk loading on sparse graphs.  Empty
            # containers are falsy; non-container iterables are truthy
            # and take the normal path.
            if edge_sizes:
                hist = Counter(edge_sizes)
                if hist:
                    hists[canon(edge)] = hist
        for hist in hists.values():
            if any(s < 1 for s in hist):
                raise ValueError(
                    f"component sizes must be >= 1, got {sorted(hist)}"
                )
        index._sizes = hists
        for hist in hists.values():
            for size in hist:
                index._support[size] += 1
        class_keys = sorted(index._support)
        index._class_keys = class_keys
        entries: Dict[int, list] = {c: [] for c in class_keys}
        for edge, hist in hists.items():
            # score at class c = components of size >= c = a suffix count
            # of the sorted multiset, so one bisect per class replaces
            # the O(|hist|) sum the per-edge loop used to pay.
            sizes_sorted = sorted(hist.elements())
            total = len(sizes_sorted)
            pos = bisect_left(class_keys, sizes_sorted[-1] + 1)
            for c in class_keys[:pos]:
                entries[c].append((bisect_left(sizes_sorted, c) - total, edge))
        for keys in entries.values():
            keys.sort()
        index._classes = entries
        return index

    # -- internals --------------------------------------------------------------

    def _update_entries(
        self,
        edge: Edge,
        old_hist: Optional[Counter],
        new_hist: Counter,
        dropping: set,
    ) -> None:
        """Reconcile the edge's key across every existing ``H(c)``.

        For each class the old and new score are compared; an unchanged
        score means an identical key, so the list is left alone.
        Classes in ``dropping`` are skipped entirely -- their whole
        list is deleted by ``_drop_classes`` right after, so removing
        one key from them first is wasted work.
        """
        old_max = max(old_hist) if old_hist else 0
        new_max = max(new_hist) if new_hist else 0
        pos = bisect_left(self._class_keys, max(old_max, new_max) + 1)
        for c in self._class_keys[:pos]:
            old_score = (
                sum(count for size, count in old_hist.items() if size >= c)
                if old_max >= c
                else 0
            )
            new_score = (
                sum(count for size, count in new_hist.items() if size >= c)
                if new_max >= c
                else 0
            )
            if old_score == new_score or c in dropping:
                continue
            keys = self._classes[c]
            if old_score:
                _remove_key(keys, (-old_score, edge))
            if new_score:
                _insert_key(keys, (-new_score, edge))

    def _update_support(
        self, old_hist: Optional[Counter], new_hist: Counter
    ) -> List[int]:
        """Adjust per-size edge support; return sizes whose support hit 0."""
        vanished: List[int] = []
        old_sizes = set(old_hist) if old_hist else set()
        for size in old_sizes - set(new_hist):
            self._support[size] -= 1
            if self._support[size] == 0:
                del self._support[size]
                vanished.append(size)
        for size in set(new_hist) - old_sizes:
            self._support[size] += 1
        return vanished

    def _create_new_classes(
        self, new_hist: Counter, old_hist: Optional[Counter]
    ) -> None:
        """Create ``H(c)`` for newly occurring sizes, back-filling all edges.

        A size is new when it enters ``C`` for the first time; every edge
        whose maximum component size is >= c must then appear in ``H(c)``
        (see module docstring).
        """
        old_sizes = set(old_hist) if old_hist else set()
        for c in sorted(set(new_hist) - old_sizes):
            if c in self._classes:
                continue
            self._classes[c] = sorted(
                (-sum(n for size, n in hist.items() if size >= c), other)
                for other, hist in self._sizes.items()
                if max(hist) >= c
            )
            insort(self._class_keys, c)

    def _drop_classes(self, vanished: List[int]) -> None:
        """Delete ``H(c)`` for sizes that left ``C``."""
        for c in vanished:
            del self._classes[c]
            self._class_keys.remove(c)

    def diversity_profile(self, edge: Edge) -> Dict[int, int]:
        """Score at every meaningful threshold: ``{tau: score}``.

        Keys are the occurring component sizes of the edge's ego-network;
        the score at any other ``tau`` equals the score at the next key up
        (or 0 above the max) -- Theorem 4's argument applied per edge.
        """
        hist = self._sizes.get(self._canon(edge))
        if not hist:
            return {}
        return {
            c: sum(n for size, n in hist.items() if size >= c)
            for c in sorted(hist)
        }

    def stats(self) -> Dict[str, object]:
        """Introspection snapshot: sizes of the index's moving parts."""
        return {
            "edges": self.edge_count,
            "entries": self.entry_count,
            "size_classes": list(self._class_keys),
            "class_sizes": {c: len(keys) for c, keys in self._classes.items()},
            "histogram_cells": sum(len(h) for h in self._sizes.values()),
        }

    # -- persistence ---------------------------------------------------------

    #: ``kind`` tag inside the binary container header (see
    #: :mod:`repro.persistence.format`).
    _CONTAINER_KIND = "esd-index"

    def save(self, path) -> None:
        """Serialize the index to ``path`` in the checksummed binary format.

        Stores the per-edge histograms (the compact O(α m) core) in one
        CRC32-guarded container section and rebuilds the lists on load
        -- small files, no pickle compatibility risk, and bit rot is
        detected instead of silently mis-scoring queries.
        """
        from repro.persistence.format import encode_container, encode_json

        histograms = [
            [list(edge), sorted(hist.elements())]
            for edge, hist in sorted(self._sizes.items())
        ]
        data = encode_container(
            self._CONTAINER_KIND, [(b"HIST", encode_json(histograms))]
        )
        with open(path, "wb") as handle:
            handle.write(data)

    @classmethod
    def load(cls, path) -> "ESDIndex":
        """Load an index previously written by :meth:`save`.

        Reads the binary container format; files from the pre-container
        era (plain JSON) are still accepted for one release.
        """
        import json

        from repro.persistence.format import json_section, read_container

        with open(path, "rb") as handle:
            head = handle.read(1)
        if head == b"{":  # legacy JSON index file
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != 1:
                raise ValueError(
                    f"unsupported index file version: {payload.get('version')!r}"
                )
            histograms = payload["edges"]
        else:
            sections = read_container(path, expect_kind=cls._CONTAINER_KIND)
            histograms = json_section(sections, b"HIST", path)
        return cls.bulk_load(
            {tuple(edge): sizes for edge, sizes in histograms}
        )

    # -- integrity ----------------------------------------------------------

    def check_invariants(self, graph: Optional[Graph] = None) -> None:
        """Validate internal consistency (and, given ``graph``, ground truth).

        Testing hook: asserts that C matches the stored histograms, every
        ``H(c)`` holds exactly the right edges with the right scores, and
        -- when the source graph is provided -- that the histograms match
        a from-scratch BFS recomputation.
        """
        from repro.core.diversity import ego_component_sizes  # avoid cycle

        expected_c = set()
        for hist in self._sizes.values():
            expected_c |= set(hist)
        assert sorted(expected_c) == self._class_keys, "C mismatch"
        assert set(self._support) == expected_c, "support mismatch"

        for c in self._class_keys:
            expected_members = {
                edge: sum(n for size, n in hist.items() if size >= c)
                for edge, hist in self._sizes.items()
                if max(hist) >= c
            }
            keys = self._classes[c]
            assert all(
                a < b for a, b in zip(keys, keys[1:])
            ), f"H({c}) not strictly ascending"
            actual = dict(self.class_list(c))
            assert actual == expected_members, f"H({c}) content mismatch"

        if graph is not None:
            tracked = set(self._sizes)
            for u, v in graph.edges():
                sizes = sorted(ego_component_sizes(graph, u, v))
                edge = canonical_edge(u, v)
                if sizes:
                    assert (
                        self.component_sizes(edge) == sizes
                    ), f"histogram mismatch for {edge}"
                    tracked.discard(edge)
                else:
                    assert edge not in self._sizes, f"phantom edge {edge}"
            assert not tracked, f"stale edges in index: {tracked}"


def _remove_key(keys: list, key) -> None:
    """Delete ``key`` from the sorted list; raises KeyError if absent."""
    i = bisect_left(keys, key)
    if i == len(keys) or keys[i] != key:
        raise KeyError(f"key not found: {key!r}")
    del keys[i]


def _insert_key(keys: list, key) -> None:
    """Insert ``key`` into the sorted list; raises KeyError if present."""
    i = bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        raise KeyError(f"duplicate key: {key!r}")
    keys.insert(i, key)
