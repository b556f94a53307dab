"""The closed loop: N connections on N threads, one request in flight each.

Every thread sends its next request only after the reply to the last one,
the way a dashboard or an analyst waits on each answer.  A thread stops
issuing new requests at the deadline; its last request may finish a
little after it, and the wall time of the phase runs to that last reply.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from perfbench.plan import Op, WriteCycle
from perfbench.wire import Connection, RequestFailed, request_for

#: ``(graph_version_after, action, (u, v))`` -- the shape ``repro.service.verify`` replays.
UpdateRecord = Tuple[int, str, Tuple[int, int]]


@dataclass
class ConnStats:
    """What one connection saw."""

    read_ms: Dict[str, List[float]] = field(default_factory=dict)  #: per metric
    write_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    updates: List[UpdateRecord] = field(default_factory=list)
    #: seeded reservoir of ``(metric, k, tau, result)`` read replies
    sampled: List[Tuple[str, int, int, Dict[str, Any]]] = field(default_factory=list)
    finished: float = 0.0


class _Reservoir:
    def __init__(self, size: int, rng: random.Random, into: list) -> None:
        self.size, self.rng, self.items = size, rng, into
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        slot = self.rng.randrange(self.seen)
        if slot < self.size:
            self.items[slot] = item


def _send(conn: Connection, op: Op, stats: ConnStats, reservoir: _Reservoir) -> None:
    stats.attempted += 1
    started = time.perf_counter()
    try:
        result = conn.call(request_for(op))
    except RequestFailed as exc:
        stats.failed += 1
        stats.errors[exc.code] += 1
        return
    except OSError as exc:  # timeouts and resets
        stats.failed += 1
        stats.errors[type(exc).__name__] += 1
        return
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if op[0] == "read":
        _, metric, k, tau = op
        stats.read_ms.setdefault(metric, []).append(elapsed_ms)
        reservoir.offer((metric, k, tau, result))
    else:
        _, action, u, v = op
        stats.write_ms.append(elapsed_ms)
        stats.updates.append((result["graph_version"], action, (u, v)))


def _drain(conn: Connection, cycle: WriteCycle, stats: ConnStats) -> None:
    """Reinsert every edge this connection still has deleted (untimed)."""
    for _, action, u, v in cycle.drain():
        result = conn.call({"op": "update", "action": action, "u": u, "v": v})
        stats.updates.append((result["graph_version"], action, (u, v)))


def run(
    address: Tuple[str, int],
    plans: Sequence[Tuple[Iterator[Op], WriteCycle]],
    seconds: float,
    seed: int,
    sample_size: int,
) -> Tuple[List[ConnStats], float]:
    """Drive every plan on its own connection for ``seconds``.

    Returns the per-connection stats and the wall time of the timed phase.
    Outstanding deletes are reinserted after the deadline, outside the
    timed phase, so the server ends on its initial edge set.
    """
    results = [ConnStats() for _ in plans]
    connections = [Connection(*address) for _ in plans]
    barrier = threading.Barrier(len(plans) + 1)
    start_box: List[float] = []
    failures: List[BaseException] = []

    def worker(i: int) -> None:
        stream, cycle = plans[i]
        stats, conn = results[i], connections[i]
        reservoir = _Reservoir(sample_size, random.Random(f"audit:{seed}:{i}"), stats.sampled)
        try:
            barrier.wait()
            deadline = start_box[0] + seconds
            while time.perf_counter() < deadline:
                _send(conn, next(stream), stats, reservoir)
            stats.finished = time.perf_counter()
            _drain(conn, cycle, stats)
        except BaseException as exc:  # reported by the caller
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,), name=f"conn-{i}") for i in range(len(plans))]
    # A collector pause in this process would show up as server latency.
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        start_box.append(time.perf_counter())
        barrier.wait()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client connection did not finish")
    finally:
        gc.enable()
        for conn in connections:
            conn.close()
    if failures:
        raise failures[0]
    wall = max(stats.finished for stats in results) - start_box[0]
    return results, wall
