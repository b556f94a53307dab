"""Timers wrapped around the layer functions the server does not time itself.

Installed by ``launch.py`` inside a traced server process before the
server starts; nothing under ``src/`` changes.  Each wrapped call adds
its duration to a named timer (count and total seconds); the maintenance
wrappers also count the common neighbours a write visited and the writes
that grew the index's size classes.  Everything the server already
publishes through its ``metrics`` op (cache, batcher, kernel and scorer
counters, per-endpoint timers, WAL bytes) is read from there instead;
see ``layers.py``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List


class Probe:
    """Per-process tallies; every update takes one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.timers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            timer = self.timers.get(name)
            if timer is None:
                self.timers[name] = [1, seconds]
            else:
                timer[0] += 1
                timer[1] += seconds

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "timers": {name: list(timer) for name, timer in self.timers.items()},
                "counts": dict(self.counts),
            }


def _timed(probe: Probe, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            probe.add_time(name, time.perf_counter() - started)

    return wrapper


def _patch_everywhere(module, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` in every loaded module that bound it by name."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if loaded is not None and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapper)


def install() -> Probe:
    """Wrap every traced layer boundary; return the process's probe."""
    import repro.cli  # noqa: F401  (binds the names patched below)
    import repro.core.build as build_mod
    import repro.graph.io as io_mod
    import repro.kernels.csr as csr_mod
    import repro.persistence.store as store_mod
    import repro.service.protocol as protocol_mod
    from repro.core.index import ESDIndex
    from repro.core.maintenance import DynamicESDIndex
    from repro.service.batcher import TopKBatcher
    from repro.service.rwlock import RWLock
    from repro.service.server import ESDServer

    probe = Probe()
    t = functools.partial(_timed, probe)

    # service.server / service.protocol
    ESDServer.handle_line = t("service.server.handle_line", ESDServer.handle_line)
    _patch_everywhere(protocol_mod, "encode", t("service.protocol.encode", protocol_mod.encode))
    _patch_everywhere(protocol_mod, "decode_line", t("service.protocol.decode", protocol_mod.decode_line))

    # service.batcher
    TopKBatcher.submit = t("service.batcher.submit", TopKBatcher.submit)

    # service.rwlock
    RWLock.acquire_read = t("service.rwlock.read_wait", RWLock.acquire_read)
    RWLock.acquire_write = t("service.rwlock.write_wait", RWLock.acquire_write)

    # core.maintenance
    def maintenance(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, u, v):
            classes_before = len(self.index.size_classes)
            started = time.perf_counter()
            try:
                stats = fn(self, u, v)
            finally:
                probe.add_time(name, time.perf_counter() - started)
            probe.add("maintenance.common_neighbors", stats.common_neighbors)
            if len(self.index.size_classes) > classes_before:
                probe.add("index.new_size_class_writes")
            return stats

        return wrapper

    DynamicESDIndex.insert_edge = maintenance("core.maintenance.insert", DynamicESDIndex.insert_edge)
    DynamicESDIndex.delete_edge = maintenance("core.maintenance.delete", DynamicESDIndex.delete_edge)

    # core.index / core.build / graph.io / kernels
    ESDIndex.set_edge = t("core.index.set_edge", ESDIndex.set_edge)
    ESDIndex.remove_edge = t("core.index.remove_edge", ESDIndex.remove_edge)
    ESDIndex.topk = t("core.index.topk", ESDIndex.topk)
    _patch_everywhere(
        build_mod, "build_index_fast_with_components",
        t("core.build.index_build", build_mod.build_index_fast_with_components),
    )
    _patch_everywhere(io_mod, "read_edge_list", t("graph.io.read_edge_list", io_mod.read_edge_list))
    _patch_everywhere(csr_mod, "snapshot_csr", t("kernels.snapshot_csr", csr_mod.snapshot_csr))

    # persistence
    DataDirectory = store_mod.DataDirectory
    DataDirectory.append_wal = t("persistence.append_wal", DataDirectory.append_wal)
    DataDirectory.compact = t("persistence.compact", DataDirectory.compact)
    DataDirectory.open = t("persistence.recover", DataDirectory.open)

    return probe
