"""Per-layer metrics of a traced run.

Two sources are read just before the timed phase and just after it, and
their difference is the timed phase alone: the server's own ``metrics``
op (cache, batcher, core, kernel and scorer counters, per-endpoint
timers, WAL bytes) and the probe snapshot of ``tracing.py`` (timers the
server does not keep).  Set-up costs (edge-list load, index build) come
from the first probe snapshot and recovery from the restarted server's
probe snapshot.  A layer a workload leaves idle reports 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("service.server.handle_line_ms", "ms"),
    ("service.protocol.encode_ms", "ms"),
    ("service.protocol.decode_ms", "ms"),
    ("service.engine.topk_ms", "ms"),
    ("service.engine.update_ms", "ms"),
    ("service.cache.hit_ratio", "fraction"),
    ("service.cache.purged_entries", "count"),
    ("service.batcher.submit_ms", "ms"),
    ("service.batcher.requests_per_batch", "count"),
    ("service.rwlock.read_wait_ms", "ms"),
    ("service.rwlock.write_wait_ms", "ms"),
    ("core.maintenance.insert_ms", "ms"),
    ("core.maintenance.delete_ms", "ms"),
    ("core.maintenance.edges_rescored_per_write", "count"),
    ("core.maintenance.common_neighbors_per_write", "count"),
    ("core.index.set_edge_ms", "ms"),
    ("core.index.remove_edge_ms", "ms"),
    ("core.index.topk_ms", "ms"),
    ("core.index.new_size_class_writes", "count"),
    ("core.build.index_build_ms", "ms"),
    ("graph.io.read_edge_list_ms", "ms"),
    ("kernels.snapshot_csr_ms", "ms"),
    ("kernels.merge_intersections_per_op", "count"),
    ("kernels.gallop_intersections_per_op", "count"),
    ("kernels.bitset_intersections_per_op", "count"),
    ("kernels.csr_patches_per_op", "count"),
    ("kernels.csr_builds_per_op", "count"),
    ("kernels.truss_kernels_per_op", "count"),
    ("kernels.maintenance_kernels_per_op", "count"),
    ("kernels.truss_repeels", "count"),
    ("kernels.truss_rebuilds", "count"),
    ("metrics.esd.topk_ms", "ms"),
    ("metrics.truss.topk_ms", "ms"),
    ("metrics.betweenness.topk_ms", "ms"),
    ("metrics.common_neighbors.topk_ms", "ms"),
    ("metrics.memo_computes", "count"),
    ("metrics.memo_hits", "count"),
    ("persistence.append_wal_ms", "ms"),
    ("persistence.compact_ms", "ms"),
    ("persistence.compactions", "count"),
    ("persistence.wal_bytes_per_write", "bytes"),
    ("persistence.recover_ms", "ms"),
    ("tracing.read_p50_overhead_pct", "%"),
    ("tracing.throughput_overhead_pct", "%"),
]

_KERNEL_PER_OP = (
    "merge_intersections",
    "gallop_intersections",
    "bitset_intersections",
    "csr_patches",
    "csr_builds",
    "truss_kernels",
    "maintenance_kernels",
)

#: Scorers whose ``topk`` endpoint time is reported.
_METRICS = ("esd", "truss", "betweenness", "common_neighbors")


def probe_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` of two probe snapshots of one process."""
    timers = {}
    for name, (count, total) in after["timers"].items():
        b_count, b_total = before["timers"].get(name, (0, 0.0))
        timers[name] = [count - b_count, total - b_total]
    return {"timers": timers, "counts": _sub(after["counts"], before["counts"])}


def _sub(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
    return {key: value - b.get(key, 0) for key, value in a.items()}


def _counter(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    """The change of one numeric field of the server's ``metrics`` reply."""
    def get(snap: Dict[str, Any]) -> float:
        for key in path:
            snap = snap.get(key, {})
        return snap if isinstance(snap, (int, float)) else 0

    return get(after) - get(before)


def _endpoint_ms(after: Dict[str, Any], before: Dict[str, Any], endpoint: str) -> float:
    """Mean time of an endpoint's calls between two ``metrics`` replies."""
    def totals(snap: Dict[str, Any]) -> Tuple[float, float]:
        stats = snap.get("endpoints", {}).get(endpoint, {})
        requests = stats.get("requests", 0)
        return requests, stats.get("mean_ms", 0.0) * requests

    requests, total = (a - b for a, b in zip(totals(after), totals(before)))
    return total / requests if requests else 0.0


def _timer(snap: Dict[str, Any], *names: str) -> Tuple[float, float]:
    count = total = 0.0
    for name in names:
        c, t = snap["timers"].get(name, (0, 0.0))
        count += c
        total += t
    return count, total


def _mean_ms(snap: Dict[str, Any], *names: str) -> float:
    count, total = _timer(snap, *names)
    return total / count * 1000.0 if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    phase: Dict[str, Any],
    after: Dict[str, Any],
    before: Dict[str, Any],
    setup: Dict[str, Any],
    recovery: Dict[str, Any],
    ops: int,
) -> Dict[str, float]:
    """Per-layer values (no ``tracing.*``).

    ``phase`` is the timed-phase delta of the server's probe snapshots,
    ``before`` and ``after`` its ``metrics`` replies around the timed
    phase, ``setup`` its probe snapshot before the timed phase,
    ``recovery`` the restarted server's final probe snapshot, and ``ops``
    the ops the clients completed.
    """
    def counter(*path: str) -> float:
        return _counter(after, before, *path)

    counts = phase["counts"]
    writes = counter("core", "insertions") + counter("core", "deletions")
    out: Dict[str, float] = {
        "service.server.handle_line_ms": _mean_ms(phase, "service.server.handle_line"),
        "service.protocol.encode_ms": _mean_ms(phase, "service.protocol.encode"),
        "service.protocol.decode_ms": _mean_ms(phase, "service.protocol.decode"),
        "service.engine.topk_ms": _endpoint_ms(after, before, "topk"),
        "service.engine.update_ms": _endpoint_ms(after, before, "update"),
        "service.cache.hit_ratio": _ratio(
            counter("cache", "hits"), counter("cache", "hits") + counter("cache", "misses")
        ),
        "service.cache.purged_entries": counter("cache", "purged"),
        "service.batcher.submit_ms": _mean_ms(phase, "service.batcher.submit"),
        "service.batcher.requests_per_batch": _ratio(
            counter("batcher", "requests"), counter("batcher", "batches")
        ),
        "service.rwlock.read_wait_ms": _mean_ms(phase, "service.rwlock.read_wait"),
        "service.rwlock.write_wait_ms": _mean_ms(phase, "service.rwlock.write_wait"),
        "core.maintenance.insert_ms": _mean_ms(phase, "core.maintenance.insert"),
        "core.maintenance.delete_ms": _mean_ms(phase, "core.maintenance.delete"),
        "core.maintenance.edges_rescored_per_write": _ratio(counter("core", "edges_rescored"), writes),
        "core.maintenance.common_neighbors_per_write": _ratio(
            counts.get("maintenance.common_neighbors", 0), writes
        ),
        "core.index.set_edge_ms": _mean_ms(phase, "core.index.set_edge"),
        "core.index.remove_edge_ms": _mean_ms(phase, "core.index.remove_edge"),
        "core.index.topk_ms": _mean_ms(phase, "core.index.topk"),
        "core.index.new_size_class_writes": counts.get("index.new_size_class_writes", 0),
        "core.build.index_build_ms": _mean_ms(setup, "core.build.index_build"),
        "graph.io.read_edge_list_ms": _mean_ms(setup, "graph.io.read_edge_list"),
        "kernels.snapshot_csr_ms": _mean_ms(phase, "kernels.snapshot_csr"),
    }
    for name in _KERNEL_PER_OP:
        out[f"kernels.{name}_per_op"] = _ratio(counter("kernels", name), ops)
    out["kernels.truss_repeels"] = counter("kernels", "truss_repeels")
    out["kernels.truss_rebuilds"] = counter("kernels", "truss_rebuilds")
    for metric in _METRICS:
        out[f"metrics.{metric}.topk_ms"] = _endpoint_ms(after, before, f"topk|metric={metric}")
    memos = after.get("scorer_memos", {})
    out["metrics.memo_computes"] = sum(counter("scorer_memos", name, "computes") for name in memos)
    out["metrics.memo_hits"] = sum(counter("scorer_memos", name, "hits") for name in memos)
    out["persistence.append_wal_ms"] = _mean_ms(phase, "persistence.append_wal")
    out["persistence.compact_ms"] = _mean_ms(phase, "persistence.compact")
    out["persistence.compactions"] = counter("persistence", "snapshots_written")
    # ``wal_bytes`` is the size of the current WAL file, which compaction
    # resets, so it is divided by the records written since the last
    # snapshot (the file's 12-byte header included).
    wal = after.get("persistence", {})
    out["persistence.wal_bytes_per_write"] = _ratio(
        wal.get("wal_bytes", 0), after.get("graph_version", 0) - wal.get("last_snapshot_version", 0)
    )
    out["persistence.recover_ms"] = _mean_ms(recovery, "persistence.recover") if recovery else 0.0
    return out
