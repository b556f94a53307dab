"""Tests of the benchmark itself: plans, pools, tail rule, audits.

    python3 -m pytest perfbench/tests -q
"""

import itertools

import pytest

from perfbench import check, plan
from perfbench.stats import percentile, summarize, tail_percentile


@pytest.fixture(scope="module")
def graph():
    return plan.make_graph("dblp", 0.3)


def _first(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("reads", ["zipf", "uniform", "mix"])
def test_plan_is_deterministic_per_seed(graph, reads):
    spec = plan.PlanSpec(reads=reads, write_share=0.3)
    pools = plan.edge_pools(graph, 7, 2, plan.POOL_SIZE)
    assert pools == plan.edge_pools(graph, 7, 2, plan.POOL_SIZE)
    for conn, pool in enumerate(pools):
        a, _ = plan.connection_plan(spec, 7, conn, pool)
        b, _ = plan.connection_plan(spec, 7, conn, pool)
        assert _first(a, 500) == _first(b, 500)
    other, _ = plan.connection_plan(spec, 8, 0, pools[0])
    again, _ = plan.connection_plan(spec, 7, 0, pools[0])
    assert _first(other, 500) != _first(again, 500)


def test_graph_is_deterministic():
    a = plan.make_graph("dblp", 0.2)
    b = plan.make_graph("dblp", 0.2)
    assert sorted(a.edges()) == sorted(b.edges())


def test_pools_are_disjoint_real_edges(graph):
    pools = plan.edge_pools(graph, 11, 2, 48)
    assert [len(p) for p in pools] == [48, 48]
    assert not set(pools[0]) & set(pools[1])
    for u, v in itertools.chain(*pools):
        assert graph.has_edge(u, v)
        assert graph.common_neighbors(u, v)


def test_pools_refuse_a_graph_too_small(graph):
    with pytest.raises(ValueError):
        plan.edge_pools(graph, 1, 2, graph.m)


def test_write_cycle_deletes_before_reinserting_and_drains(graph):
    pool = plan.edge_pools(graph, 2, 1, 6)[0]
    cycle = plan.WriteCycle(pool, lag=3)
    out = set()
    for _ in range(101):
        _, action, u, v = cycle.next()
        if action == "delete":
            assert (u, v) not in out, "edge deleted twice while out"
            out.add((u, v))
        else:
            assert (u, v) in out, "reinsert of an edge that is not out"
            out.remove((u, v))
        assert len(out) <= 4
    for _, action, u, v in cycle.drain():
        assert action == "insert"
        out.remove((u, v))
    assert not out
    assert cycle.drain() == []


def test_write_cycle_needs_room_for_its_lag(graph):
    with pytest.raises(ValueError):
        plan.WriteCycle(plan.edge_pools(graph, 2, 1, 4)[0], lag=3)


def test_plan_writes_only_touch_its_own_pool(graph):
    spec = plan.PlanSpec(reads="uniform", write_share=0.5)
    pools = plan.edge_pools(graph, 4, 2, plan.POOL_SIZE)
    for conn, pool in enumerate(pools):
        stream, _ = plan.connection_plan(spec, 4, conn, pool)
        writes = [op for op in _first(stream, 400) if op[0] == "write"]
        assert writes
        assert {(u, v) for _, _, u, v in writes} <= set(pool)


@pytest.mark.parametrize(
    "count, pct",
    [(10_000, 99.0), (1000, 99.0), (200, 95.0), (100, 90.0), (40, 75.0),
     (20, 50.0), (19, None), (0, None)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, pct):
    assert tail_percentile(count) == pytest.approx(pct) if pct else tail_percentile(count) is None


@pytest.mark.parametrize("count", [20, 21, 99, 200, 999, 1000, 1001, 5000])
def test_tail_has_ten_samples_beyond_it_and_p99_needs_1000(count):
    samples = list(range(count))
    pct = tail_percentile(count)
    tail = percentile(samples, pct)
    assert sum(1 for x in samples if x > tail) >= 10
    assert (pct >= 99.0) == (count >= 1000)
    assert pct <= 99.0


def test_summary_reports_tail_and_count():
    samples = list(range(1, 1001))
    summary = summarize(samples)
    assert summary == {"count": 1000, "p50_ms": 500, "tail_pct": 99.0, "tail_ms": 990}
    short = summarize(list(range(1, 101)))
    assert short["tail_pct"] == pytest.approx(90.0) and short["tail_ms"] == 90
    assert percentile([3, 1, 2], 50) == 2


def _esd_sample(graph, k, tau):
    from repro.core.build import build_index_fast

    items = [[u, v, s] for (u, v), s in build_index_fast(graph).topk(k, tau)]
    return ("esd", k, tau, {"items": items, "graph_version": 0})


def test_audit_accepts_true_answers_and_rejects_a_tampered_one(graph):
    good = _esd_sample(graph, 10, 2)
    assert check.audit(graph, [], [good], limit=4, seed=0) == (1, [])
    tampered = ("esd", 10, 2, {"items": [list(x) for x in good[3]["items"]], "graph_version": 0})
    tampered[3]["items"][0][2] += 1
    checked, mismatches = check.audit(graph, [], [tampered], limit=4, seed=0)
    assert checked == 1 and mismatches


def test_audit_replays_updates_to_the_reply_version(graph):
    u, v = plan.edge_pools(graph, 9, 1, 4)[0][0]
    after = graph.copy()
    after.remove_edge(u, v)
    reply = _esd_sample(after, 20, 1)
    reply[3]["graph_version"] = 1
    updates = [(1, "delete", (u, v))]
    assert check.audit(graph, updates, [reply], limit=4, seed=0)[1] == []
    # The same answer claimed for version 0 is wrong unless the edge was idle.
    stale = ("esd", 20, 1, dict(reply[3], graph_version=0))
    if reply[3]["items"] != _esd_sample(graph, 20, 1)[3]["items"]:
        assert check.audit(graph, updates, [stale], limit=4, seed=0)[1]


@pytest.mark.parametrize("metric", ["truss", "betweenness", "common_neighbors"])
def test_metric_audit_rejects_a_tampered_table(graph, metric):
    from repro.metrics.scorers import rank_edges

    items = [[u, v, s] for (u, v), s in rank_edges(check._reference_table(graph, metric), 10)]
    reply = {"items": items, "graph_version": 0}
    assert check.audit_metric_replies(graph, [], [(metric, 10, 2, reply)]) == []
    swapped = {"items": [items[1], items[0], *items[2:]], "graph_version": 0}
    if items[0][2] != items[1][2] or items[0][:2] != items[1][:2]:
        assert check.audit_metric_replies(graph, [], [(metric, 10, 2, swapped)])


def test_final_graph_check_catches_a_missing_reinsert(graph):
    u, v = plan.edge_pools(graph, 9, 1, 4)[0][0]
    balanced = [(1, "delete", (u, v)), (2, "insert", (u, v))]
    assert check.final_graph_problems(graph, balanced, 2) == []
    assert check.final_graph_problems(graph, balanced[:1], 1)
    assert check.final_graph_problems(graph, balanced[1:], 2)  # gap at version 1


def test_probe_reads_cover_the_query_grid():
    assert len(plan.PAIRS) == 36
    esd = plan.probe_reads(plan.PlanSpec("zipf", 0.02))
    assert {(k, tau) for _, _, k, tau in esd} == set(plan.PAIRS)
    mix = plan.probe_reads(plan.PlanSpec("mix"))
    assert {m for _, m, _, _ in mix} == set(plan.MIX_METRICS)


def test_pools_are_stratified_by_common_neighbour_count(graph):
    import bisect

    ranked = sorted(
        (len(graph.common_neighbors(u, v)), (u, v)) for u, v in graph.edges()
    )
    rank = {edge: i for i, edge in enumerate(e for c, e in ranked if c)}
    starts = [i * len(rank) // 64 for i in range(64)]

    def stratum(edge):
        return bisect.bisect_right(starts, rank[edge]) - 1

    strata = [
        [sorted(stratum(e) for e in pool) for pool in plan.edge_pools(graph, seed, 2, 32)]
        for seed in (1, 2)
    ]
    assert strata[0] == strata[1]  # same cost strata, whatever the seed
    assert strata[0][0] == list(range(0, 64, 2))
    prefix = sorted(stratum(e) for e in plan.edge_pools(graph, 1, 2, 32)[0][:4])
    assert prefix[0] < 16 and prefix[-1] >= 48  # a prefix already spans the range


def test_metric_mix_draws_every_metric_and_k(graph):
    pools = plan.edge_pools(graph, 3, 2, 16)
    for conn, pool in enumerate(pools):
        stream, _ = plan.connection_plan(plan.PlanSpec("mix", 0.2), 3, conn, pool)
        ops = _first(stream, 1000)
        assert 150 < sum(op[0] == "write" for op in ops) < 250
        assert {op[3] for op in ops if op[0] == "read"} == {2}
        assert {op[1] for op in ops if op[0] == "read"} == set(plan.MIX_METRICS)
        assert {op[2] for op in ops if op[0] == "read"} == set(plan.MIX_K)


def test_scaling_moves_only_the_cpu_part_of_a_sample():
    from perfbench import speed

    assert speed.scaled(1.0, 0.4, 0.5) == pytest.approx(0.8)
    assert speed.scaled(1.0, 0.0, 0.5) == 1.0
    assert speed.scaled(1.0, 1.2, 2.0) == pytest.approx(2.0)  # CPU capped at wall
    assert speed.reference_loop_s() > 0
