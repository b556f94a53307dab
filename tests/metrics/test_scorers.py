"""The scorer registry: contract, parity with specialized paths, memos."""

import pytest

from repro.core import build_index_fast
from repro.core.diversity import (
    all_edge_structural_diversities,
    edge_structural_diversity,
)
from repro.core.maintenance import DynamicESDIndex
from repro.analytics.betweenness import (
    all_edge_ego_betweenness,
    edge_betweenness,
)
from repro.analytics.truss import truss_numbers
from repro.graph import Graph, paper_example_graph
from repro.graph.graph import canonical_edge
from repro.metrics import (
    DEFAULT_METRIC,
    EsdScorer,
    MetricScorer,
    get_metric,
    metric_names,
    rank_edges,
    register_metric,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {
            "esd",
            "truss",
            "betweenness",
            "betweenness_global",
            "common_neighbors",
        } <= set(metric_names())
        assert DEFAULT_METRIC == "esd"

    def test_unknown_metric_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown metric 'pagerank'"):
            get_metric("pagerank")
        with pytest.raises(ValueError, match="esd"):
            get_metric("pagerank")

    def test_duplicate_registration_requires_replace(self):
        scorer = get_metric("esd")
        with pytest.raises(ValueError, match="already registered"):
            register_metric(EsdScorer())
        # replace=True swaps, and we restore the original right after.
        replacement = EsdScorer()
        assert register_metric(replacement, replace=True) is replacement
        register_metric(scorer, replace=True)
        assert get_metric("esd") is scorer

    def test_name_must_be_identifier(self):
        class Bad(MetricScorer):
            name = "not a name"

        with pytest.raises(ValueError, match="identifier"):
            register_metric(Bad())

    def test_describe_is_json_ready(self):
        assert get_metric("esd").describe() == {"name": "esd", "uses_tau": True}
        assert get_metric("truss").describe()["uses_tau"] is False


class TestRankEdges:
    def test_orders_by_score_then_edge(self):
        scores = {(1, 2): 3, (0, 1): 3, (2, 3): 5}
        assert rank_edges(scores, 3) == [
            ((2, 3), 5), ((0, 1), 3), ((1, 2), 3),
        ]

    def test_mixed_label_ties_do_not_raise(self):
        # int and str vertices live in disjoint components; a tie across
        # them compared raw tuples before the type-tagged key existed.
        scores = {(1, 2): 1, ("a", "b"): 1, (3, 4): 1}
        ranked = rank_edges(scores, 3)
        assert [edge for edge, _ in ranked] == [(1, 2), (3, 4), ("a", "b")]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_edges({(0, 1): 1}, 0)


class TestEsdScorer:
    def test_topk_parity_with_fresh_index(self, fig1):
        scorer = get_metric("esd")
        fresh = build_index_fast(fig1)
        for k, tau in [(1, 1), (5, 1), (10, 2), (3, 3)]:
            via_graph = scorer.topk(fig1, k, tau=tau)
            assert dict(via_graph) == dict(fresh.topk(k, tau))

    def test_with_index_is_the_serving_path_verbatim(self, fig1):
        # With `index` the scorer must return the index's own answer
        # object-for-object: metric=esd is bit-identical to the
        # pre-registry serving path.
        dyn = DynamicESDIndex(fig1)
        scorer = get_metric("esd")
        assert scorer.topk(fig1, 5, tau=2, index=dyn) == dyn.topk(5, 2)
        edge = dyn.topk(1, 2)[0][0]
        assert scorer.score(fig1, edge, tau=2, index=dyn) == dyn.index.score(
            edge, 2
        )

    def test_score_without_index(self, fig1):
        scorer = get_metric("esd")
        u, v = next(iter(fig1.edges()))
        assert scorer.score(fig1, (u, v), tau=2) == edge_structural_diversity(
            fig1, u, v, 2
        )
        assert scorer.score(fig1, ("nope", "nada"), tau=2) == 0

    def test_topk_without_index_matches_exhaustive(self, fig1):
        scorer = get_metric("esd")
        assert scorer.topk(fig1, 4, tau=2) == rank_edges(
            all_edge_structural_diversities(fig1, 2), 4
        )


class TestGraphScorers:
    def test_truss_scores_and_topk(self, k4):
        scorer = get_metric("truss")
        numbers = truss_numbers(k4)
        for edge in k4.edges():
            assert scorer.score(k4, edge) == numbers[canonical_edge(*edge)]
        assert dict(scorer.topk(k4, 6)) == numbers
        assert scorer.score(k4, (0, 99)) == 0

    def test_betweenness_is_ego_betweenness(self, path4):
        scorer = get_metric("betweenness")
        table = all_edge_ego_betweenness(path4)
        top = scorer.topk(path4, 3)
        assert dict(top) == table
        # The middle edge of a path bridges the most 2-hop pairs.
        assert top[0][0] == (1, 2)
        # score() answers locally, without building the table.
        for edge, value in top:
            assert scorer.score(path4, edge) == value
        assert scorer.score(path4, (0, 3)) == 0.0

    def test_betweenness_global_is_brandes(self, path4):
        scorer = get_metric("betweenness_global")
        table = edge_betweenness(path4)
        top = scorer.topk(path4, 3)
        assert dict(top) == pytest.approx(table)
        # The middle edge of a path carries the most shortest paths.
        assert top[0][0] == (1, 2)
        assert scorer.score(path4, (0, 3)) == 0.0

    def test_common_neighbors(self, k4):
        scorer = get_metric("common_neighbors")
        assert all(score == 2 for _, score in scorer.topk(k4, 6))
        assert scorer.score(k4, (0, 1)) == 2
        assert scorer.score(k4, (0, 99)) == 0

    def test_common_neighbors_score_skips_the_memo(self, k4):
        # A point query is O(min-degree); it must not pay for (or
        # populate) the whole-graph topk table.
        from repro.metrics import CommonNeighborsScorer

        scorer = CommonNeighborsScorer()
        assert scorer.score(k4, (0, 1)) == 2
        assert scorer._memo.computes == 0
        scorer.topk(k4, 2)
        assert scorer._memo.computes == 1


class TestRevisionMemo:
    def test_mutation_recomputes_after_revision_bump(self):
        scorer = get_metric("truss")
        graph = Graph([(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert scorer.score(graph, (0, 1)) == 4
        graph.remove_edge(2, 3)
        # Same graph object, new revision: the memo must not serve the
        # stale table.
        assert scorer.score(graph, (0, 1)) == 3

    def test_two_graphs_do_not_cross_contaminate(self):
        scorer = get_metric("truss")
        k4 = Graph([(a, b) for a in range(4) for b in range(a + 1, 4)])
        triangle = Graph([(0, 1), (1, 2), (0, 2)])
        assert scorer.score(k4, (0, 1)) == 4
        assert scorer.score(triangle, (0, 1)) == 3
        assert scorer.score(k4, (0, 1)) == 4
