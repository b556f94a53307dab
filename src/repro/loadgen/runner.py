"""Orchestration glue between the CLI verbs and the loadgen layers.

``esd load run`` is one open-loop trial; ``esd load sweep`` wraps many
trials in the knee bisection and emits the BENCH record.  Both talk to
an already-running server (``esd serve`` or a cluster router) -- the
harness never owns the process under test, so it can point at anything
speaking the protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.bench.workloads import LOADGEN_EDGE_BASE
from repro.loadgen.analysis import Slo, capacity_sweep, summarize
from repro.loadgen.clock import SYSTEM_CLOCK, Clock
from repro.loadgen.driver import LoadDriver, measure_baseline
from repro.loadgen.report import build_payload, fold_scrapes, scrape_metrics
from repro.loadgen.scenario import PROFILES, build_plan
from repro.loadgen.schedule import Stage, arrival_times
from repro.service.client import ServiceClient

#: Vertex-id stride between run namespaces, so every run's mutation pool
#: is disjoint from every other's (inserts never collide, deletes never
#: touch another run's edges).
TRIAL_EDGE_STRIDE = 10_000_000


def client_factory(
    host: str, port: int, timeout: float = 30.0
) -> Callable[[], ServiceClient]:
    return lambda: ServiceClient(host, port, timeout=timeout)


def fresh_edge_base(host: str, port: int, timeout: float = 30.0) -> int:
    """An edge namespace that no earlier run against this server used.

    Namespaces are indexed by the server's ``graph_version``.  A run that
    left any edge in the graph advanced that version, so each later run
    starts above every earlier run's namespace: runs and sweeps can be
    repeated against one live server.
    """
    with ServiceClient(host, port, timeout=timeout) as client:
        stats = client.stats()
        version = stats["graph_version"]
        if stats.get("role") == "replica":
            # Routed read: the replica may trail writes acked through the
            # router, whose view of the writer version does not.
            status = client.request("cluster-status")
            version = max(version, status["writer_version"])
    return LOADGEN_EDGE_BASE + version * TRIAL_EDGE_STRIDE


def run_scenario(
    host: str,
    port: int,
    scenario: str,
    rate: float,
    duration: float,
    workers: int = 8,
    seed: int = 0,
    process: str = "poisson",
    timeout: float = 30.0,
    clock: Clock = SYSTEM_CLOCK,
) -> Dict:
    """One open-loop trial in a :func:`fresh_edge_base` namespace;
    returns the :func:`summarize` record."""
    edge_base = fresh_edge_base(host, port, timeout)
    profile = PROFILES[scenario]
    stages = [Stage(duration=duration, rate=rate, process=process)]
    deadlines = arrival_times(stages, seed=seed)
    plan = build_plan(deadlines, profile, seed=seed, edge_base=edge_base)
    driver = LoadDriver(
        client_factory(host, port, timeout),
        workers=workers,
        clock=clock,
        seed=seed,
    )
    result = driver.run(plan)
    return summarize(result, offered_rate=rate, duration=duration)


def _try_scrape(host: str, port: int) -> Optional[str]:
    try:
        return scrape_metrics(host, port)
    except (OSError, ConnectionError):
        return None


def run_with_scrapes(
    host: str, port: int, **kwargs
) -> Tuple[Dict, Optional[Dict]]:
    """:func:`run_scenario` bracketed by metrics scrapes (best-effort)."""
    before = _try_scrape(host, port)
    summary = run_scenario(host, port, **kwargs)
    after = _try_scrape(host, port)
    folded = (
        fold_scrapes(before, after)
        if before is not None and after is not None
        else None
    )
    return summary, folded


def run_sweep(
    host: str,
    port: int,
    scenario: str,
    slo: Slo,
    lo: float,
    hi: float,
    duration: float = 2.0,
    workers: int = 8,
    seed: int = 0,
    iterations: int = 5,
    baseline_duration: float = 1.0,
    timeout: float = 30.0,
    clock: Clock = SYSTEM_CLOCK,
) -> Dict:
    """The full capacity workflow: baseline, bisection, BENCH payload."""
    baseline_rate = measure_baseline(
        client_factory(host, port, timeout),
        duration=baseline_duration,
        clock=clock,
    )
    before = _try_scrape(host, port)
    trial = [0]

    def probe(rate: float) -> Dict:
        trial[0] += 1
        return run_scenario(
            host,
            port,
            scenario,
            rate=rate,
            duration=duration,
            workers=workers,
            seed=seed + trial[0],
            timeout=timeout,
            clock=clock,
        )

    sweep = capacity_sweep(probe, lo, hi, slo, iterations=iterations)
    after = _try_scrape(host, port)
    prometheus = (
        fold_scrapes(before, after)
        if before is not None and after is not None
        else None
    )
    return build_payload(
        scenario=scenario,
        sweep=sweep,
        baseline_rate_rps=baseline_rate,
        seed=seed,
        workers=workers,
        trial_duration_s=duration,
        prometheus=prometheus,
    )
