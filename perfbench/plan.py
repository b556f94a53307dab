"""Seeded inputs: the graph file, the per-connection edge pools, the op plans.

Everything the server receives is made here: an edge-list file written
from one of the repo's dataset generators at its own fixed seed, and,
for each client connection, an endless request stream drawn from
``--seed``.  The seed picks which dataset edges are written and which
reads are asked; the graph stays the same across seeds, so seeds vary
the requests without varying the dataset.  The same seed always yields
the same streams; how far into a stream a run gets depends only on how
fast the server answers.

Writes use real dataset edges, never fresh vertex pairs: an edge that
shares at least one common neighbour makes maintenance do real work
(component re-flooding, rescoring, ``H(c)`` moves).  Each connection
owns a disjoint pool of such edges and cycles it as delete-then-later-
reinsert, so concurrent writes can never conflict and the graph returns
to its initial edge set once every outstanding delete is reinserted.

A write's cost grows with the edge's common-neighbour count, and a few
edges cost tens of times the median.  So pools are drawn stratified by
that count: every seed's pools span the same cost range in the same
proportions, and every prefix of a pool does too.  Seeds then differ in
which edges they write, not in how expensive their writes are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

#: The paper's query grid (Exp-3/4): k x tau, 36 pairs.
K_VALUES = (1, 10, 50, 100, 150, 200)
TAU_VALUES = (1, 2, 3, 4, 5, 6)
PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    (k, tau) for k in K_VALUES for tau in TAU_VALUES
)

#: Metrics read by ``metric_mix``, each with k in {10, 50} and tau 2.
MIX_METRICS = ("esd", "truss", "betweenness", "common_neighbors")
MIX_K = (10, 50)
MIX_READS: Tuple[Tuple[str, int], ...] = tuple(
    (metric, k) for metric in MIX_METRICS for k in MIX_K
)

#: Real edges in each connection's write pool.
POOL_SIZE = 128
#: Deletes a connection keeps outstanding before reinserting.
LAG = 3

#: Zipf exponent of the skewed (k, tau) draw.
ZIPF_S = 1.1

#: Popularity order of the 36 pairs, most asked first.  Fixed, so every
#: seed asks the same mix and seeds differ only in the draws.
POPULARITY: Tuple[Tuple[int, int], ...] = tuple(
    random.Random("popularity").sample(PAIRS, len(PAIRS))
)

#: A read is ``("read", metric, k, tau)``; a write ``("write", action, u, v)``.
Op = Tuple


@dataclass(frozen=True)
class PlanSpec:
    """The request mix of one workload (see ``workloads.py``).

    Each op is a write with probability ``write_share``, else a read.
    ``reads`` is ``"zipf"`` or ``"uniform"`` for esd ``topk`` drawn over
    the 36 pairs, or ``"mix"`` for a uniform draw over ``MIX_READS``.
    """

    reads: str
    write_share: float = 0.0


def make_graph(generator: str, scale: float):
    """The workload graph: a repo dataset generator at ``scale`` and its default seed."""
    from repro.graph.datasets import DATASETS

    return DATASETS[generator](scale)


def median_edge(graph) -> Tuple[int, int]:
    """The edge of median common-neighbour count: a seed-independent write."""
    ranked = sorted(
        (len(graph.common_neighbors(u, v)), (u, v)) for u, v in graph.edges()
    )
    return ranked[len(ranked) // 2][1]


def _spread_order(n: int) -> List[int]:
    """``0..n-1`` in bit-reversed order, so every prefix spans the range evenly."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def edge_pools(graph, seed: int, connections: int, size: int) -> List[List[Tuple[int, int]]]:
    """Disjoint per-connection pools of edges with >= 1 common neighbour.

    The candidates, ranked by common-neighbour count, are cut into
    ``connections * size`` equal strata; the seed picks one edge in each.
    Connection ``c`` takes every ``connections``-th stratum, in an order
    whose every prefix spans the cost range.
    """
    ranked = sorted(
        (len(graph.common_neighbors(u, v)), (u, v)) for u, v in graph.edges()
    )
    candidates = [edge for count, edge in ranked if count]
    need = connections * size
    if len(candidates) < need:
        raise ValueError(
            f"graph has {len(candidates)} edges with a common neighbour, "
            f"need {need}"
        )
    rng = random.Random(f"pools:{seed}")
    picks = [
        candidates[rng.randrange(i * len(candidates) // need, (i + 1) * len(candidates) // need)]
        for i in range(need)
    ]
    pools = [picks[c::connections] for c in range(connections)]
    return [[pool[i] for i in _spread_order(size)] for pool in pools]


class WriteCycle:
    """Delete/reinsert stream over one pool.

    Write ``j`` deletes pool edge ``j`` for the first ``lag`` writes, then
    alternates reinsert-oldest / delete-next, so at most ``lag + 1`` pool
    edges are out at once and every delete is reinserted ``2 * lag`` writes
    later.  Pool indices wrap, which is safe while the pool is larger than
    ``lag + 1``.
    """

    def __init__(self, pool: Sequence[Tuple[int, int]], lag: int) -> None:
        if len(pool) < lag + 2:
            raise ValueError(f"pool of {len(pool)} edges is too small for lag {lag}")
        self._pool = list(pool)
        self._lag = lag
        self._deleted = 0
        self._reinserted = 0
        self._writes = 0

    def _edge(self, i: int) -> Tuple[int, int]:
        return self._pool[i % len(self._pool)]

    def next(self) -> Op:
        j = self._writes
        self._writes += 1
        if j >= self._lag and (j - self._lag) % 2 == 0:
            edge = self._edge(self._reinserted)
            self._reinserted += 1
            return ("write", "insert", *edge)
        edge = self._edge(self._deleted)
        self._deleted += 1
        return ("write", "delete", *edge)

    def drain(self) -> List[Op]:
        """Reinserts of every outstanding delete, oldest first."""
        ops = [
            ("write", "insert", *self._edge(i))
            for i in range(self._reinserted, self._deleted)
        ]
        self._reinserted = self._deleted
        return ops


def _zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def connection_plan(
    spec: PlanSpec, seed: int, conn: int, pool: Sequence[Tuple[int, int]]
) -> Tuple[Iterator[Op], WriteCycle]:
    """One connection's endless op stream and the write cycle behind it."""
    rng = random.Random(f"plan:{seed}:{conn}")
    cycle = WriteCycle(pool, LAG)
    if spec.reads == "zipf":
        weights = _zipf_weights(len(POPULARITY))

        def read() -> Op:
            return ("read", "esd", *rng.choices(POPULARITY, weights)[0])
    elif spec.reads == "uniform":
        def read() -> Op:
            return ("read", "esd", *rng.choice(PAIRS))
    elif spec.reads == "mix":
        def read() -> Op:
            return ("read", *rng.choice(MIX_READS), 2)
    else:
        raise ValueError(f"unknown read mix {spec.reads!r}")

    def drawn() -> Iterator[Op]:
        while True:
            yield cycle.next() if rng.random() < spec.write_share else read()

    return drawn(), cycle


def probe_reads(spec: PlanSpec) -> List[Op]:
    """The fixed read set asked before a kill and after the restart."""
    if spec.reads == "mix":
        return [("read", metric, k, 2) for metric, k in MIX_READS]
    return [("read", "esd", k, tau) for k, tau in PAIRS]
