"""Perf-regression harness: pinned workloads, per-op medians, BENCH files.

``esd bench regress`` times every hot path of the library -- index
construction, online top-k, indexed top-k, dynamic maintenance, triangle
counting -- on pinned synthetic workloads, in **both** kernel modes
(``csr`` and ``set``), and writes a ``BENCH_<tag>.json`` record to the
repository root.  Committed BENCH files form a chain: each new run is
compared against the most recent previous record and flagged when an op
regresses beyond tolerance.

Two metrics are supported for the comparison:

* ``median`` -- raw kernel-mode median seconds.  Meaningful only on the
  same machine that produced the baseline.
* ``speedup`` -- the ``set_median / csr_median`` ratio.  Machine
  independent (both modes run in the same process on the same data), so
  it is what CI checks: a drop means the kernels lost ground against
  the reference implementation, whatever the hardware.

The default run times every suite -- the classic ``full``/``quick``
index workloads plus the specialized ``truss_build`` and
``metric_maintenance`` suites -- so a committed BENCH file can serve as
the baseline for quick CI runs (``--quick`` drops only ``full``) and
for full local runs alike.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytics.truss import truss_numbers
from repro.bench.harness import ExperimentTable, Seconds
from repro.core.build import build_index_fast
from repro.core.maintenance import DynamicESDIndex
from repro.core.online import topk_online
from repro.graph.generators import erdos_renyi, planted_partition
from repro.graph.graph import Graph
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.dispatch import use_kernels
from repro.metrics import (
    BetweennessScorer,
    EgoBetweennessScorer,
    TrussScorer,
)

#: Repository root -- where BENCH_*.json records live, next to README.md.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Tag of the record this revision of the harness emits.
BENCH_TAG = "PR10"

#: Relative regression tolerance for baseline comparison (25%).
DEFAULT_TOLERANCE = 0.25

#: Pinned workloads.  Changing these invalidates baseline comparability,
#: so treat them like a file-format version.  The ``maint_*`` keys pin a
#: *separate, denser* graph for ``maintenance_batch``: incremental
#: maintenance is dominated by shared index traffic on sparse graphs
#: (both kernel modes pay the same ``H(c)`` cost), so the kernels' edge
#: only shows where partition/enumeration work dominates -- exactly the
#: dense ego-network regime the delta kernels were built for.
SUITES: Dict[str, Dict[str, int | float | str]] = {
    "full": {
        "n": 1200, "p": 0.015, "seed": 7, "k": 20, "tau": 2, "repeats": 5,
        "maint_n": 200, "maint_p": 0.3, "maint_probes": 24,
    },
    "quick": {
        "n": 600, "p": 0.022, "seed": 7, "k": 10, "tau": 2, "repeats": 5,
        "maint_n": 140, "maint_p": 0.4, "maint_probes": 16,
    },
    # Whole-graph k-truss decomposition, kernel bucket-peel vs the set
    # reference.  Sized so the csr region sits well above clock jitter.
    "truss_build": {
        "kind": "truss_build",
        "n": 500, "p": 0.05, "seed": 11, "repeats": 5,
    },
    # The metric family's full-recompute cliff: mutate an edge, then
    # query topk.  The clustered graph keeps each truss re-peel local
    # to one community while the set-mode baseline rebuilds the whole
    # table, so the csr/set ratio *is* the incremental-vs-full speedup.
    # Betweenness is mode-aware by design: csr serves the re-founded
    # local ego-betweenness (``metric=betweenness``), set runs the
    # global Brandes pass it replaced (``metric=betweenness_global``)
    # on a pinned smaller graph -- the ratio measures what re-founding
    # the serving-path metric bought.
    "metric_maintenance": {
        "kind": "metric_maintenance",
        "communities": 40, "community_size": 26, "p_in": 0.45,
        "seed": 11, "k": 10, "probes": 6,
        "bt_n": 260, "bt_p": 0.07, "bt_probes": 2,
        "repeats": 3,
    },
}

#: Op execution order (and display order).
OPS = (
    "build_index_fast",
    "count_triangles",
    "topk_online",
    "topk_indexed",
    "maintenance",
    "maintenance_batch",
)

#: Ops whose csr-vs-set speedup the kernels are accountable for.
SPEEDUP_OPS = ("build_index_fast", "count_triangles")

#: Ops each non-classic suite kind runs (classic suites run :data:`OPS`).
SUITE_KIND_OPS: Dict[str, Tuple[str, ...]] = {
    "truss_build": ("truss_numbers",),
    "metric_maintenance": ("truss_mutate_query", "betweenness_mutate_query"),
}

#: Ops reported but never *gated*: their timed region is at most a few
#: milliseconds, and a null experiment (timing the same mode against
#: itself) swings the ratio by more than the default tolerance on an
#: ordinary CI machine.  ``topk_indexed`` is additionally a pure
#: ``H(c)`` slice the kernels never touch, so its true ratio is 1.0 and any
#: deviation is noise.  ``maintenance_batch`` is the gated maintenance
#: metric -- its hundreds-of-milliseconds region sits far above the
#: noise floor.
UNGATED_OPS = ("maintenance", "topk_indexed")

#: Minimum csr-vs-set speedup each op must hold in a *committed* BENCH
#: record (checked by ``--require-floors`` and the test suite).  The
#: ratio is machine independent, so the floor is a real property of the
#: kernels, not of the hardware that produced the record.
SPEEDUP_FLOORS: Dict[str, float] = {
    "maintenance_batch": 1.5,
    # Kernel bucket-peel vs set truss decomposition: measured ~2.1-2.3x
    # across densities; 1.5 leaves honest headroom.
    "truss_numbers": 1.5,
    # The PR-10 acceptance gate: incremental maintenance (re-peel /
    # local ego-betweenness) must hold >= 5x over the full-recompute
    # baseline on the mutate-then-query workload.
    "truss_mutate_query": 5.0,
    "betweenness_mutate_query": 5.0,
}


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``fn``.

    Collects garbage before the loop so debris from the previous op
    (dropped indexes, bitset layers) is not charged to this one, and
    pauses the collector during the timed region: collection pauses
    land on whichever op happens to cross an allocation threshold,
    which can skew a 25%-tolerance ratio gate all by itself.
    """
    gc.collect()
    times: List[float] = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def _make_ops(
    graph: Graph, dense: Graph, k: int, tau: int, probes: int
) -> Dict[str, Callable[[], object]]:
    """The pinned op closures, shared by both kernel modes.

    The indexed-query and maintenance ops prepare their index inside the
    closure-building step below (per mode), so only the steady-state
    operation is timed.
    """
    from repro.cliques.triangles import count_triangles

    index = build_index_fast(graph)
    dyn = DynamicESDIndex(graph)
    probe_edges = graph.edge_list()[: max(4, k)]

    # maintenance_batch targets the edges with the largest common
    # neighborhoods -- the updates whose partition/enumeration work the
    # delta kernels accelerate.  Each repeat deletes then re-inserts the
    # probe set through ``apply_batch``, restoring the graph.
    dyn_batch = DynamicESDIndex(dense)
    batch_probes = sorted(
        dense.edge_list(),
        key=lambda e: (
            -len(dense.neighbors(e[0]) & dense.neighbors(e[1])), e,
        ),
    )[:probes]

    def op_maintenance() -> None:
        # 5 rounds per repeat: a single pass over the probes is sub-ms
        # and dominated by shared ESDIndex updates, so one lucky
        # pass can swing the speedup ratio past the tolerance gate.
        for _ in range(5):
            for u, v in probe_edges:
                dyn.delete_edge(u, v)
                dyn.insert_edge(u, v)

    def op_maintenance_batch() -> None:
        dyn_batch.apply_batch(deletions=batch_probes)
        dyn_batch.apply_batch(insertions=batch_probes)

    def op_topk_indexed() -> None:
        # A single indexed query is sub-microsecond; 50 per repeat keeps
        # the measurement above clock jitter (both modes pay the same
        # factor, so ratios are unaffected).
        for _ in range(50):
            index.topk(k, tau)

    return {
        "build_index_fast": lambda: build_index_fast(graph),
        "count_triangles": lambda: count_triangles(graph),
        "topk_online": lambda: topk_online(graph, k, tau),
        "topk_indexed": op_topk_indexed,
        "maintenance": op_maintenance,
        "maintenance_batch": op_maintenance_batch,
    }


def _classic_suite(spec: Dict) -> Tuple[Dict, Tuple[str, ...], Callable]:
    """Workload + ops of the original full/quick suite shape."""
    seed = int(spec["seed"])
    graph = erdos_renyi(int(spec["n"]), float(spec["p"]), seed=seed)
    dense = erdos_renyi(
        int(spec.get("maint_n", spec["n"])),
        float(spec.get("maint_p", spec["p"])),
        seed=seed,
    )
    k, tau = int(spec["k"]), int(spec["tau"])
    probes = int(spec.get("maint_probes", max(4, k)))
    workload = {**spec, "m": graph.m, "maint_m": dense.m}

    def make_ops(mode: str) -> Dict[str, Callable[[], object]]:
        return _make_ops(graph, dense, k, tau, probes)

    return workload, OPS, make_ops


def _truss_build_suite(spec: Dict) -> Tuple[Dict, Tuple[str, ...], Callable]:
    """Whole-graph truss decomposition, kernel peel vs set reference."""
    graph = erdos_renyi(
        int(spec["n"]), float(spec["p"]), seed=int(spec["seed"])
    )
    workload = {**spec, "m": graph.m}

    def make_ops(mode: str) -> Dict[str, Callable[[], object]]:
        return {"truss_numbers": lambda: truss_numbers(graph)}

    return workload, SUITE_KIND_OPS["truss_build"], make_ops


def _clustered_graph(
    communities: int, size: int, p_in: float, seed: int
) -> Graph:
    """Dense communities joined by triangle-free ring bridges.

    With ``p_out = 0`` a bridge's endpoints share no neighbor, so a
    bridge closes no triangle and every truss re-peel region stays
    inside the mutated edge's own community -- the locality the
    incremental scorer is being measured on.
    """
    graph = planted_partition(communities, size, p_in, 0.0, seed=seed)
    for c in range(communities):
        graph.add_edge(c * size, ((c + 1) % communities) * size + 1)
    return graph


def _intra_probes(graph: Graph, size: int, count: int) -> List[Tuple]:
    """One deterministic intra-community edge from each of ``count``
    communities (skipping a community in the vanishingly unlikely case
    its anchor vertex has no intra neighbor)."""
    probes: List[Tuple] = []
    for c in range(count):
        base = c * size
        intra = sorted(v for v in graph.neighbors(base) if v // size == c)
        if intra:
            probes.append((base, intra[0]))
    return probes


def _metric_maintenance_suite(
    spec: Dict,
) -> Tuple[Dict, Tuple[str, ...], Callable]:
    """Mutate-then-query latency of the memoized metric family.

    Scorers are primed at op-build time (inside the mode context), so
    the timed region is steady-state maintenance: every query after a
    mutation must refresh the memoized table.  In csr mode that refresh
    is the incremental path (truss re-peel, kernel ego-betweenness); in
    set mode it is the full-recompute baseline this PR removed from the
    serving path.
    """
    communities = int(spec["communities"])
    size = int(spec["community_size"])
    seed, k = int(spec["seed"]), int(spec["k"])
    graph = _clustered_graph(communities, size, float(spec["p_in"]), seed)
    probes = _intra_probes(graph, size, int(spec["probes"]))
    bt_graph = erdos_renyi(int(spec["bt_n"]), float(spec["bt_p"]), seed=seed)
    bt_probes = bt_graph.edge_list()[: int(spec["bt_probes"])]
    workload = {
        **spec, "n": graph.n, "m": graph.m, "bt_m": bt_graph.m,
    }

    def make_ops(mode: str) -> Dict[str, Callable[[], object]]:
        truss_scorer = TrussScorer()
        truss_scorer.topk(graph, k)
        bt_scorer = (
            EgoBetweennessScorer() if mode == "csr" else BetweennessScorer()
        )
        bt_scorer.topk(bt_graph, k)

        def op_truss_mutate_query() -> None:
            for u, v in probes:
                graph.remove_edge(u, v)
                truss_scorer.topk(graph, k)
                graph.add_edge(u, v)
                truss_scorer.topk(graph, k)

        def op_betweenness_mutate_query() -> None:
            for u, v in bt_probes:
                bt_graph.remove_edge(u, v)
                bt_scorer.topk(bt_graph, k)
                bt_graph.add_edge(u, v)
                bt_scorer.topk(bt_graph, k)

        return {
            "truss_mutate_query": op_truss_mutate_query,
            "betweenness_mutate_query": op_betweenness_mutate_query,
        }

    return workload, SUITE_KIND_OPS["metric_maintenance"], make_ops


#: Suite ``kind`` field -> builder returning (workload, ops, make_ops).
_SUITE_BUILDERS: Dict[str, Callable] = {
    "classic": _classic_suite,
    "truss_build": _truss_build_suite,
    "metric_maintenance": _metric_maintenance_suite,
}


def run_suite(name: str) -> Dict:
    """Time every op of suite ``name`` in both kernel modes."""
    spec = SUITES[name]
    builder = _SUITE_BUILDERS[str(spec.get("kind", "classic"))]
    workload, op_names, make_ops = builder(spec)
    repeats = int(spec["repeats"])

    result: Dict = {"workload": workload, "ops": {}}
    timings: Dict[str, Dict[str, float]] = {op: {} for op in op_names}
    for mode in ("csr", "set"):
        with use_kernels(mode):
            ops = make_ops(mode)
            if mode == "csr":
                baseline = KERNEL_COUNTERS.snapshot()
            for op in op_names:
                timings[op][mode] = _median_seconds(ops[op], repeats)
            if mode == "csr":
                result["kernel_counters"] = KERNEL_COUNTERS.delta_since(
                    baseline
                )
    for op in op_names:
        csr_s, set_s = timings[op]["csr"], timings[op]["set"]
        result["ops"][op] = {
            "csr_median_s": csr_s,
            "set_median_s": set_s,
            "speedup": (set_s / csr_s) if csr_s > 0 else float("inf"),
            "repeats": repeats,
        }
    return result


def run_regress(quick: bool = False) -> Dict:
    """Run the suites and return the BENCH payload (not yet persisted).

    ``--quick`` drops only the big classic ``full`` suite; the
    specialized suites (truss build, metric maintenance) are already
    CI-sized, and skipping them would skip their floors.
    """
    suite_names = (
        [name for name in SUITES if name != "full"]
        if quick
        else list(SUITES)
    )
    return {
        "bench": BENCH_TAG,
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "suites": {name: run_suite(name) for name in suite_names},
    }


def check_floors(payload: Dict) -> List[str]:
    """Ops in ``payload`` whose speedup fell below :data:`SPEEDUP_FLOORS`.

    Returns ``"suite/op"`` strings (empty = all floors hold).  Ops not
    present in a suite are ignored -- floors constrain what ran, they do
    not force every suite to run every op.
    """
    failures: List[str] = []
    for suite, record in payload.get("suites", {}).items():
        for op, floor in SPEEDUP_FLOORS.items():
            op_record = record.get("ops", {}).get(op)
            if op_record is None:
                continue
            if op_record.get("speedup", 0.0) < floor:
                failures.append(f"{suite}/{op}")
    return failures


# -- baseline comparison ------------------------------------------------------


def _bench_ordinal(path: Path) -> Tuple[int, str]:
    """Sort key: the PR number in the stem, then the name.

    Lexical sorting is a trap once the chain passes PR 9:
    ``BENCH_PR10.json`` sorts *before* ``BENCH_PR5.json``.
    """
    digits = "".join(ch for ch in path.stem if ch.isdigit())
    return (int(digits) if digits else -1, path.name)


def find_baseline(output: Path) -> Optional[Path]:
    """The most recent committed regress record other than ``output``.

    Only payloads carrying a ``suites`` table qualify: the repository
    root also holds loadgen capacity records (``BENCH_PR8.json``) that
    share the naming scheme but not the schema.
    """
    candidates: List[Path] = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        if path.resolve() == output.resolve():
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict) or "suites" not in payload:
            continue
        candidates.append(path)
    candidates.sort(key=_bench_ordinal)
    return candidates[-1] if candidates else None


def _metric_value(op_record: Dict, metric: str) -> Optional[float]:
    if metric == "median":
        return op_record.get("csr_median_s")
    if metric == "speedup":
        return op_record.get("speedup")
    raise ValueError(f"unknown metric {metric!r}; choose median or speedup")


def compare(
    current: Dict,
    baseline: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
    metric: str = "speedup",
) -> Dict:
    """Compare shared suites/ops of two BENCH payloads.

    ``median`` regresses when the time grows by more than ``tolerance``;
    ``speedup`` regresses when the ratio shrinks by more than
    ``tolerance``.  Ops or suites present on only one side are reported
    but never fail the comparison (the workload set may legitimately
    grow between PRs).
    """
    entries: List[Dict] = []
    regressions: List[str] = []
    for suite, cur_suite in current.get("suites", {}).items():
        base_suite = baseline.get("suites", {}).get(suite)
        if base_suite is None:
            continue
        for op, cur_op in cur_suite.get("ops", {}).items():
            base_op = base_suite.get("ops", {}).get(op)
            if base_op is None:
                entries.append(
                    {"suite": suite, "op": op, "status": "new"}
                )
                continue
            cur_v = _metric_value(cur_op, metric)
            base_v = _metric_value(base_op, metric)
            if not cur_v or not base_v:
                entries.append(
                    {"suite": suite, "op": op, "status": "incomparable"}
                )
                continue
            if metric == "median":
                ratio = cur_v / base_v  # >1 = slower
                regressed = ratio > 1 + tolerance
            else:
                ratio = cur_v / base_v  # <1 = lost speedup
                regressed = ratio < 1 - tolerance
            if op in UNGATED_OPS:
                status = "noisy" if regressed else "ok"
                regressed = False
            else:
                status = "regression" if regressed else "ok"
            entries.append(
                {
                    "suite": suite,
                    "op": op,
                    "status": status,
                    "metric": metric,
                    "current": cur_v,
                    "baseline": base_v,
                    "ratio": ratio,
                }
            )
            if regressed:
                regressions.append(f"{suite}/{op}")
    return {
        "metric": metric,
        "tolerance": tolerance,
        "baseline_bench": baseline.get("bench"),
        "entries": entries,
        "regressions": regressions,
    }


# -- presentation -------------------------------------------------------------


def tables_for(payload: Dict) -> List[ExperimentTable]:
    """Render the payload as paper-style tables (one per suite)."""
    tables: List[ExperimentTable] = []
    for suite, record in payload["suites"].items():
        w = record["workload"]
        table = ExperimentTable(
            experiment="regress",
            title=(
                f"suite={suite} G(n={w.get('n', '?')}, m={w.get('m', '?')}) "
                f"k={w.get('k', '-')} tau={w.get('tau', '-')}"
            ),
            columns=["op", "csr median", "set median", "speedup"],
        )
        for op, rec in record["ops"].items():
            table.add_row(
                op,
                Seconds(rec["csr_median_s"]),
                Seconds(rec["set_median_s"]),
                f"{rec['speedup']:.2f}x",
            )
        counters = record.get("kernel_counters", {})
        if counters:
            hot = ", ".join(
                f"{key}={value}"
                for key, value in sorted(counters.items())
                if value
            )
            table.note(f"kernel counters (csr pass): {hot}")
        tables.append(table)
    comparison = payload.get("comparison")
    if comparison and comparison.get("entries"):
        table = ExperimentTable(
            experiment="regress",
            title=(
                f"vs baseline {comparison.get('baseline_bench')} "
                f"(metric={comparison['metric']}, "
                f"tolerance={comparison['tolerance']:.0%})"
            ),
            columns=["suite", "op", "status", "current", "baseline", "ratio"],
        )
        for entry in comparison["entries"]:
            table.add_row(
                entry["suite"],
                entry["op"],
                entry["status"],
                _fmt_metric(entry.get("current")),
                _fmt_metric(entry.get("baseline")),
                f"{entry['ratio']:.2f}" if "ratio" in entry else "-",
            )
        tables.append(table)
    return tables


def _fmt_metric(value: Optional[float]) -> str:
    return f"{value:.4g}" if isinstance(value, float) else "-"


def run_and_persist(
    quick: bool = False,
    output: Optional[Path] = None,
    baseline: Optional[Path] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    metric: str = "speedup",
    require_floors: bool = False,
) -> Tuple[Dict, List[ExperimentTable], int]:
    """Full CLI workflow: run, compare, persist, render.

    Returns ``(payload, tables, exit_code)``; exit code 1 means at least
    one op regressed beyond tolerance against the baseline, or (with
    ``require_floors``) fell below its :data:`SPEEDUP_FLOORS` minimum.
    """
    output = output or (REPO_ROOT / f"BENCH_{BENCH_TAG}.json")
    payload = run_regress(quick=quick)
    baseline_path = baseline or find_baseline(output)
    if baseline_path is not None and baseline_path.exists():
        baseline_payload = json.loads(
            baseline_path.read_text(encoding="utf-8")
        )
        payload["comparison"] = compare(
            payload, baseline_payload, tolerance=tolerance, metric=metric
        )
        payload["comparison"]["baseline_path"] = str(baseline_path)
    payload["floor_failures"] = check_floors(payload)
    output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    tables = tables_for(payload)
    failed = bool(payload.get("comparison", {}).get("regressions")) or (
        require_floors and bool(payload["floor_failures"])
    )
    return payload, tables, 1 if failed else 0
