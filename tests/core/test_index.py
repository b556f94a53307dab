"""Tests for the ESDIndex structure and its query algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ESDIndex, build_index_fast, topk_exact
from repro.core.index import _insert_key, _remove_key
from repro.graph import Graph, gnm_random


class TestEmptyIndex:
    def test_queries_empty(self):
        index = ESDIndex()
        assert index.topk(5, 1) == []
        assert index.query(5, 3) == []
        assert index.size_classes == []
        assert index.entry_count == 0
        assert index.edge_count == 0

    def test_parameter_validation(self):
        index = ESDIndex()
        with pytest.raises(ValueError):
            index.topk(0, 1)
        with pytest.raises(ValueError):
            index.topk(1, 0)
        with pytest.raises(ValueError):
            index.score((0, 1), 0)


class TestSetEdge:
    def test_single_edge(self):
        index = ESDIndex()
        index.set_edge((1, 2), [3, 1])
        assert index.size_classes == [1, 3]
        assert index.score((1, 2), 1) == 2
        assert index.score((1, 2), 2) == 1
        assert index.score((1, 2), 4) == 0
        assert index.component_sizes((1, 2)) == [1, 3]
        index.check_invariants()

    def test_edge_canonicalized(self):
        index = ESDIndex()
        index.set_edge((2, 1), [2])
        assert index.score((1, 2), 2) == 1
        assert index.score((2, 1), 2) == 1

    def test_update_changes_entries(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2, 2])
        index.set_edge((1, 2), [3])
        assert index.size_classes == [3]
        assert index.topk(1, 2) == [((1, 2), 1)]
        index.check_invariants()

    def test_update_to_empty_removes(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2])
        index.set_edge((1, 2), [])
        assert index.edge_count == 0
        assert index.size_classes == []
        index.check_invariants()

    def test_invalid_sizes(self):
        index = ESDIndex()
        with pytest.raises(ValueError):
            index.set_edge((1, 2), [0, 2])

    def test_new_class_backfill(self):
        """Creating H(c) must back-fill existing larger-component edges."""
        index = ESDIndex()
        index.set_edge((1, 2), [5])
        index.set_edge((3, 4), [3])  # creates H(3); (1,2) has a comp >= 3
        h3 = dict(index.class_list(3))
        assert h3 == {(1, 2): 1, (3, 4): 1}
        index.check_invariants()

    def test_class_dropped_when_size_vanishes(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2])
        index.set_edge((3, 4), [4])
        index.set_edge((1, 2), [4])  # size 2 no longer occurs anywhere
        assert index.size_classes == [4]
        index.check_invariants()


class TestRemoveEdge:
    def test_remove(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2])
        index.set_edge((3, 4), [2, 1])
        index.remove_edge((1, 2))
        assert index.edge_count == 1
        assert index.topk(5, 1) == [((3, 4), 2)]
        index.check_invariants()

    def test_remove_untracked_is_noop(self):
        index = ESDIndex()
        index.remove_edge((9, 9 + 1))
        assert index.edge_count == 0

    def test_remove_last_drops_classes(self):
        index = ESDIndex()
        index.set_edge((1, 2), [3])
        index.remove_edge((1, 2))
        assert index.size_classes == []
        index.check_invariants()


class TestClassListSafety:
    """H(c) lists refuse to silently diverge from the histograms."""

    def test_missing_key_remove_raises(self):
        keys = [(-2, (1, 2)), (-1, (3, 4))]
        with pytest.raises(KeyError):
            _remove_key(keys, (-1, (1, 2)))
        assert keys == [(-2, (1, 2)), (-1, (3, 4))]

    def test_duplicate_insert_raises(self):
        keys = [(-2, (1, 2)), (-1, (3, 4))]
        with pytest.raises(KeyError):
            _insert_key(keys, (-1, (3, 4)))
        _insert_key(keys, (-1, (1, 2)))
        assert keys == [(-2, (1, 2)), (-1, (1, 2)), (-1, (3, 4))]

    def test_check_invariants_catches_disorder(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2])
        index.set_edge((3, 4), [2, 2])
        index._classes[2].reverse()
        with pytest.raises(AssertionError, match="ascending"):
            index.check_invariants()


class TestQuery:
    def test_tau_above_max_returns_empty(self, fig1):
        index = build_index_fast(fig1)
        assert index.topk(3, 6) == []

    def test_tau_between_classes_rounds_up(self):
        index = ESDIndex()
        index.set_edge((1, 2), [2, 5, 5])
        index.set_edge((3, 4), [5])
        # tau=3 -> c*=5: scores at 5.
        assert index.topk(5, 3) == [((1, 2), 2), ((3, 4), 1)]

    def test_topk_truncates(self, fig1):
        index = build_index_fast(fig1)
        assert len(index.topk(2, 1)) == 2

    def test_query_returns_edges(self, fig1):
        index = build_index_fast(fig1)
        assert index.query(3, 2) == [e for e, _ in index.topk(3, 2)]

    def test_entry_count_bounded_by_common_neighbors(self, fig1):
        """Theorem 3: total entries <= sum over edges of |N(u) ∩ N(v)|."""
        index = build_index_fast(fig1)
        budget = sum(
            len(fig1.common_neighbors(u, v)) for u, v in fig1.edges()
        )
        assert index.entry_count <= budget


class TestIndexMatchesExact:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tau", [1, 2, 3, 4])
    def test_random_graphs_all_k(self, seed, tau):
        g = gnm_random(30, 110, seed=seed)
        index = build_index_fast(g)
        exact = [(e, s) for e, s in topk_exact(g, g.m, tau) if s > 0]
        got = index.topk(g.m, tau)
        assert got == exact

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=45,
        ),
        st.integers(1, 5),
        st.integers(1, 10),
    )
    def test_property(self, edges, tau, k):
        g = Graph(edges)
        index = build_index_fast(g)
        exact = [(e, s) for e, s in topk_exact(g, k, tau) if s > 0]
        assert index.topk(k, tau) == exact
        index.check_invariants(g)
