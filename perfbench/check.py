"""Correctness audits of what the server answered.

Read replies are audited against a fresh recomputation on the
graph at the reply's ``graph_version`` -- the initial graph with the
run's acknowledged updates replayed up to that version.  ``esd`` replies
go through ``repro.service.verify`` (a fresh ``build_index_fast`` per
version); the other metrics against a fresh whole-graph score table,
ranked the same way the scorers rank.  The benchmark process runs these
on the set-based reference kernels, so the oracle does not share the
server's compute path.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.loop import UpdateRecord

#: ``(metric, k, tau, result)`` as sampled by the closed loop.
Sample = Tuple[str, int, int, Dict[str, Any]]


def _reference_table(graph, metric: str) -> Dict[Tuple, Any]:
    from repro.analytics.betweenness import all_edge_ego_betweenness
    from repro.analytics.truss import truss_numbers
    from repro.graph.graph import canonical_edge

    if metric == "truss":
        return truss_numbers(graph)
    if metric == "betweenness":
        return all_edge_ego_betweenness(graph)
    if metric == "common_neighbors":
        return {
            canonical_edge(u, v): len(graph.common_neighbors(u, v))
            for u, v in graph.edges()
        }
    raise ValueError(f"no reference for metric {metric!r}")


def audit_metric_replies(initial, updates: Sequence[UpdateRecord], samples: Sequence[Sample]) -> List[str]:
    """Mismatches of non-``esd`` replies against fresh score tables."""
    from repro.metrics.scorers import rank_edges
    from repro.service.verify import graph_at_version

    by_version: Dict[int, List[Sample]] = {}
    for sample in samples:
        by_version.setdefault(sample[3]["graph_version"], []).append(sample)
    mismatches: List[str] = []
    for version in sorted(by_version):
        graph = graph_at_version(initial, updates, version)
        tables: Dict[str, Dict] = {}
        for metric, k, tau, result in by_version[version]:
            if metric not in tables:
                tables[metric] = _reference_table(graph, metric)
            expected = [[u, v, score] for (u, v), score in rank_edges(tables[metric], k)]
            if result["items"] != expected:
                mismatches.append(
                    f"{metric} topk(k={k}) at version {version}: served "
                    f"{result['items'][:3]!r}... != expected {expected[:3]!r}..."
                )
    return mismatches


def audit_esd_replies(initial, updates: Sequence[UpdateRecord], samples: Sequence[Sample]) -> List[str]:
    """Mismatches of ``esd`` replies against a fresh index per version."""
    from repro.service.verify import verify_topk_responses

    return verify_topk_responses(
        initial, updates, [(k, tau, result) for _, k, tau, result in samples]
    )


def pick_versions(samples: Sequence[Sample], limit: int, seed: int) -> List[Sample]:
    """The samples at up to ``limit`` seeded-random distinct versions."""
    versions = sorted({sample[3]["graph_version"] for sample in samples})
    chosen = set(random.Random(f"versions:{seed}").sample(versions, min(limit, len(versions))))
    return [sample for sample in samples if sample[3]["graph_version"] in chosen]


def audit(initial, updates: Sequence[UpdateRecord], samples: Sequence[Sample], limit: int, seed: int) -> Tuple[int, List[str]]:
    """Audit a seeded sample of replies; return ``(replies checked, mismatches)``."""
    esd = pick_versions([s for s in samples if s[0] == "esd"], limit, seed)
    other = pick_versions([s for s in samples if s[0] != "esd"], limit, seed)
    mismatches = audit_esd_replies(initial, updates, esd) + audit_metric_replies(initial, updates, other)
    return len(esd) + len(other), mismatches


def final_graph_problems(initial, updates: Sequence[UpdateRecord], final_version: int) -> List[str]:
    """The acknowledged update log must be gap-free and end on the initial edge set."""
    from repro.service.verify import graph_at_version

    try:
        final = graph_at_version(initial, updates, final_version)
    except ValueError as exc:
        return [f"update log: {exc}"]
    if set(final.edges()) != set(initial.edges()):
        return ["the graph did not return to its initial edge set"]
    return []


def same_answers(before: Sequence[Any], after: Sequence[Any]) -> List[str]:
    """Probe answers before a kill and after the restart must be identical."""
    problems = []
    for (op, a), (_, b) in zip(before, after):
        if a["items"] != b["items"]:
            problems.append(f"{op} changed across the restart")
    return problems
