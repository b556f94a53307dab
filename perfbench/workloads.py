"""The benchmark's workloads: graph, request mix and durability."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from perfbench.plan import PlanSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  #: a ``repro.graph.datasets`` generator
    scale: float
    plan: PlanSpec
    durable: bool = False  #: ``--data-dir`` with fsync and the default snapshot interval
    audit_versions: int = 6  #: graph versions whose sampled replies are recomputed


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read_mostly",
            why="98% Zipf esd topk over the 36 (k, tau) pairs on livejournal x2: "
            "the read path (protocol, cache hits, socket) with cheap writes",
            generator="livejournal",
            scale=2.0,
            plan=PlanSpec(reads="zipf", write_share=0.02),
            audit_versions=3,
        ),
        Workload(
            name="churn",
            why="50% real-edge delete/reinsert on durable dblp x1: maintenance, "
            "H(c), WAL fsync and compaction; every write defeats the cache",
            generator="dblp",
            scale=1.0,
            plan=PlanSpec(reads="uniform", write_share=0.5),
            durable=True,
            audit_versions=8,
        ),
        Workload(
            name="metric_mix",
            why="truss, betweenness, common_neighbors and esd reads with 20% "
            "writes on dblp x0.5: the metric scorers and the truss kernel",
            generator="dblp",
            scale=0.5,
            plan=PlanSpec(reads="mix", write_share=0.2),
            audit_versions=6,
        ),
    )
}
