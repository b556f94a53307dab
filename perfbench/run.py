"""Run one benchmark workload against a real ``esd serve`` and report it.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark writes the workload's
graph file, derives the request plans from ``--seed``, starts ``esd
serve`` on that file as a child process, drives it in a closed loop over
two connections for ``--seconds``, checks the answers, and prints one
JSON result as its last line (see README.md).  ``--trace 1`` runs the
same workload twice, untraced and then under the layer probes of
``launch.py``, and reports the per-layer metrics and the tracing
overhead instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"perfbench: no src/repro under {ROOT}; run from a repository checkout\n")
    raise SystemExit(2)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.graph.io import write_edge_list  # noqa: E402

from perfbench import check, layers, loop, plan, proc, speed  # noqa: E402
from perfbench.stats import summarize  # noqa: E402
from perfbench.wire import Connection, request_for  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

CONNECTIONS = 2
SETUPS = 9  #: server starts per run; setup_s is their median
RECOVERIES = 9  #: SIGKILL + restart cycles per run; recovery_s is their median
SAMPLE_SIZE = 400  #: read replies each connection keeps for the audit
#: WAL records past the last snapshot when a durable server is killed.
#: They are all writes of one fixed edge, so every run's recovery replays
#: the same records whatever the seed wrote.
WAL_TAIL = 250
MARK_TIMEOUT = 30.0

#: A timed sample: wall seconds, the server's CPU seconds within them,
#: and the factor that scales CPU time to reference speed (``speed.py``).
Sample = Tuple[float, float, float]

#: The gated end-to-end metrics and units, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("probe_s", "s"),
    ("recovery_s", "s"),
    ("server_rss_mb", "MB"),
]

#: Figures of the timed phase, printed in the record line but not gated.
#: On a shared two-core host, a neighbour's load can halve closed-loop
#: throughput and raise latency and even server CPU per op by half for
#: minutes at a time, so two sets of ten runs can differ by more than any
#: bound a gate may use (25%).
REPORTED = [
    ("server_cpu_ms_per_op", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("error_share", "fraction"),
]


class Run:
    """One invocation: its inputs, its temporary directory, its servers."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        runs = ROOT / "perfbench" / ".runs"
        runs.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs))
        self.graph = plan.make_graph(workload.generator, workload.scale)
        self.graph_file = str(self.dir / "graph.txt")
        write_edge_list(self.graph, self.graph_file)
        self.pools = plan.edge_pools(self.graph, seed, CONNECTIONS, plan.POOL_SIZE)
        self.env = {key: value for key, value in os.environ.items() if key != "ESD_KERNELS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.pids: List[int] = []
        self.addresses: List[Tuple[str, int]] = []
        self.problems: List[str] = []
        self._dirs = 0

    # -- servers ---------------------------------------------------------------

    def data_dir(self) -> Optional[str]:
        """A fresh data directory for a durable workload, else ``None``."""
        if not self.workload.durable:
            return None
        self._dirs += 1
        path = self.dir / f"data-{self._dirs}"
        path.mkdir()
        return str(path)

    def start(self, data_dir: Optional[str] = None, recover: bool = False,
              trace_dir: Optional[str] = None) -> proc.Server:
        args = ["serve", "--port", "0"]
        if data_dir is not None:
            args += ["--data-dir", data_dir]
        if not recover:  # a recovering durable server reads only its data dir
            args += ["--graph", self.graph_file]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "launch.py"), "--trace-dir", trace_dir, "--", *args]
        server = proc.Server(argv, self.env, str(ROOT))
        self.pids.append(server.pid)
        try:
            server.wait_ready()
        except BaseException:
            server.kill()
            raise
        self.addresses.append(server.address)
        return server

    # -- phases ----------------------------------------------------------------

    def probe(self, server: proc.Server) -> List[Tuple[Any, Dict[str, Any]]]:
        """Ask the fixed probe reads; also warms caches and scorer tables."""
        with Connection(*server.address) as conn:
            return [(op, conn.call(request_for(op))) for op in plan.probe_reads(self.workload.plan)]

    def timed_probe(self, server: proc.Server) -> Tuple[float, float]:
        """Wall and server CPU seconds of the probe reads on a fresh server.

        The CPU time is read while the connection, and so the server
        thread that answered it, is still open.
        """
        with Connection(*server.address) as conn:
            cpu = server.thread_cpu_seconds()
            started = time.perf_counter()
            for op in plan.probe_reads(self.workload.plan):
                conn.call(request_for(op))
            wall = time.perf_counter() - started
            return wall, server.thread_cpu_seconds() - cpu

    def ask(self, server: proc.Server, op: str) -> Dict[str, Any]:
        """The reply to one argument-free op such as ``stats`` or ``metrics``."""
        with Connection(*server.address) as conn:
            return conn.call({"op": op})

    def timed(self, server: proc.Server) -> Tuple[List[loop.ConnStats], float]:
        plans = [
            plan.connection_plan(self.workload.plan, self.seed, conn, pool)
            for conn, pool in enumerate(self.pools)
        ]
        return loop.run(server.address, plans, self.seconds, self.seed, SAMPLE_SIZE)

    def top_up_wal(self, server: proc.Server, conns: List[loop.ConnStats]) -> None:
        """Delete/reinsert one fixed edge through the next compaction and
        then ``WAL_TAIL`` records more.

        A durable server compacts every ``snapshot_interval`` mutations
        since its bootstrap at version 0, so its WAL holds ``version mod
        interval`` records.  These writes are untimed and logged like the
        rest.
        """
        from repro.service.server import ServerConfig

        interval = ServerConfig().snapshot_interval
        version = max((u[0] for c in conns for u in c.updates), default=0)
        pairs, odd = divmod((-version) % interval + WAL_TAIL, 2)
        if odd:
            self.problems.append(f"cannot top the WAL up from odd version {version}")
        u, v = plan.median_edge(self.graph)
        with Connection(*server.address) as conn:
            for _ in range(pairs):
                for action in ("delete", "insert"):
                    result = conn.call({"op": "update", "action": action, "u": u, "v": v})
                    conns[0].updates.append((result["graph_version"], action, (u, v)))

    def recover(self, server: proc.Server, data_dir: Optional[str], final_version: int,
                before: List, trace_dir: Optional[str] = None,
                cycles: int = RECOVERIES) -> Tuple[List[Sample], proc.Server]:
        """SIGKILL the server and restart it on the same inputs, ``cycles`` times.

        Returns the restart times and the last server.  The last restart
        must come back at the last acknowledged version
        (durable) or at version 0 (in memory), answering the probe reads
        exactly as before the kill.
        """
        times = []
        for _ in range(cycles):
            server.kill()
            server, factor = speed.bracketed(
                lambda: self.start(data_dir, recover=data_dir is not None, trace_dir=trace_dir)
            )
            times.append((server.ready_s, server.ready_cpu_s, factor))
        version = self.ask(server, "stats")["graph_version"]
        expected = final_version if data_dir is not None else 0
        if version != expected:
            self.problems.append(f"restart came back at version {version}, expected {expected}")
        self.problems += check.same_answers(before, self.probe(server))
        return times, server

    def finish_phase(self, server: proc.Server, conns: List[loop.ConnStats]) -> Tuple[int, List]:
        """After the timed phase: check the edge count, return the version and probe answers."""
        if self.workload.durable:
            self.top_up_wal(server, conns)
        stats = self.ask(server, "stats")
        if stats["m"] != self.graph.m:
            self.problems.append(f"server ended with m={stats['m']}, started with {self.graph.m}")
        return stats["graph_version"], self.probe(server)

    def audit(self, conns: List[loop.ConnStats], final_version: int) -> int:
        updates = sorted(u for c in conns for u in c.updates)
        samples = [s for c in conns for s in c.sampled]
        self.problems += check.final_graph_problems(self.graph, updates, final_version)
        checked, mismatches = check.audit(self.graph, updates, samples, self.workload.audit_versions, self.seed)
        self.problems += mismatches
        return checked

    def leak_checks(self) -> None:
        alive = [pid for pid in self.pids if proc.alive(pid)]
        if alive:
            self.problems.append(f"processes left running: {alive}")
        segments = proc.leftover_segments(self.pids)
        if segments:
            self.problems.append(f"shared-memory segments left: {segments}")
        for host, port in set(self.addresses):
            try:
                socket.create_connection((host, port), timeout=1.0).close()
            except OSError:
                continue
            self.problems.append(f"something still listens on {host}:{port}")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def client_metrics(conns: List[loop.ConnStats], wall: float) -> Dict[str, Any]:
    """End-to-end client figures of one timed phase."""
    reads: Dict[str, List[float]] = {}
    for c in conns:
        for metric, samples in c.read_ms.items():
            reads.setdefault(metric, []).extend(samples)
    attempted = sum(c.attempted for c in conns)
    failed = sum(c.failed for c in conns)
    errors: Dict[str, int] = {}
    for c in conns:
        for code, n in c.errors.items():
            errors[code] = errors.get(code, 0) + n
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": wall,
        "throughput_ops_s": (attempted - failed) / wall,
        "read": summarize([x for samples in reads.values() for x in samples]),
        "write": summarize([x for c in conns for x in c.write_ms]),
        "read_by_metric": {metric: summarize(samples) for metric, samples in sorted(reads.items())},
    }


def untraced(run: Run) -> Tuple[Dict[str, float], Dict[str, Any], int, int]:
    """The end-to-end run: setups, warm-up, timed phase, kills, audits."""
    setups: List[Sample] = []
    probes: List[Sample] = []
    for i in range(SETUPS):
        data_dir = run.data_dir()

        def start_and_probe() -> Tuple[proc.Server, Tuple[float, float]]:
            started = run.start(data_dir)
            try:
                return started, run.timed_probe(started)
            except BaseException:
                started.kill()
                raise

        (server, probe), factor = speed.bracketed(start_and_probe)
        setups.append((server.ready_s, server.ready_cpu_s, factor))
        probes.append((*probe, factor))
        if i < SETUPS - 1:
            server.kill()
    try:
        cpu_before = server.cpu_seconds()
        conns, wall = run.timed(server)
        cpu = server.cpu_seconds() - cpu_before
        rss = server.peak_rss_mb()
        final_version, before = run.finish_phase(server, conns)
        recoveries, server = run.recover(server, data_dir, final_version, before)
    finally:
        server.stop()
    audited = run.audit(conns, final_version)
    client = client_metrics(conns, wall)
    for what in ("read", "write"):
        if "tail_ms" not in client[what]:
            run.problems.append(f"too few {what} samples ({client[what]['count']}) for a tail")
    completed = client["attempted"] - client["failed"]
    values = {
        "setup_s": statistics.median(speed.scaled(*s) for s in setups),
        "probe_s": statistics.median(speed.scaled(*s) for s in probes),
        "recovery_s": statistics.median(speed.scaled(*s) for s in recoveries),
        "server_cpu_ms_per_op": cpu * 1000.0 / completed,
        "server_rss_mb": rss,
        "throughput_ops_s": client["throughput_ops_s"],
        "read_p50_ms": client["read"].get("p50_ms"),
        "read_tail_ms": client["read"].get("tail_ms"),
        "write_p50_ms": client["write"].get("p50_ms"),
        "write_tail_ms": client["write"].get("tail_ms"),
        "error_share": client["failed"] / client["attempted"],
    }
    units = dict(END_TO_END + REPORTED)
    for metric, summary in client["read_by_metric"].items():
        if metric != "esd" and "p50_ms" in summary:
            values[f"{metric}_read_p50_ms"] = summary["p50_ms"]
            units[f"{metric}_read_p50_ms"] = "ms"
    record = {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        # (wall s, server CPU s, reference-speed factor) of each sample
        "setup_samples": setups,
        "probe_samples": probes,
        "recovery_samples": recoveries,
        "final_graph_version": final_version,
        "audited_replies": audited,
        **client,
    }
    return values, record, client["attempted"], client["failed"]


def _mark(server: proc.Server, trace_dir: Path, n: int) -> Dict[str, Any]:
    """SIGUSR1 the traced server; return its probe snapshot number ``n``."""
    server.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + MARK_TIMEOUT
    path = trace_dir / f"{n}.json"
    while not path.exists():
        if time.monotonic() > deadline:
            raise proc.ServerError(f"traced server did not write snapshot {n}: {server.output()}")
        time.sleep(0.02)
    return json.loads(path.read_text())


def traced(run: Run) -> Tuple[Dict[str, float], Dict[str, Any], int, int]:
    """The per-layer run: an untraced phase, then the same under the probes."""
    server = run.start(run.data_dir())
    try:
        run.probe(server)
        base_conns, base_wall = run.timed(server)
    finally:
        server.stop()
    base = client_metrics(base_conns, base_wall)

    trace_dir = run.dir / "trace"
    recovery_dir = run.dir / "trace-recovery"
    trace_dir.mkdir()
    recovery_dir.mkdir()
    data_dir = run.data_dir()
    server = run.start(data_dir, trace_dir=str(trace_dir))
    try:
        run.probe(server)
        registry_before = run.ask(server, "metrics")
        before_phase = _mark(server, trace_dir, 1)
        conns, wall = run.timed(server)
        after_phase = _mark(server, trace_dir, 2)
        registry_after = run.ask(server, "metrics")
        final_version, before = run.finish_phase(server, conns)
        _, server = run.recover(server, data_dir, final_version, before,
                                trace_dir=str(recovery_dir), cycles=1)
    finally:
        server.stop()
    recovery_file = recovery_dir / "final.json"
    recovery = json.loads(recovery_file.read_text()) if recovery_file.exists() else {}
    run.audit(conns, final_version)
    client = client_metrics(conns, wall)
    completed = client["attempted"] - client["failed"]
    metrics = layers.derive(
        layers.probe_delta(after_phase, before_phase), registry_after, registry_before,
        before_phase, recovery, completed,
    )
    base_p50 = base["read"]["p50_ms"]
    metrics["tracing.read_p50_overhead_pct"] = (client["read"]["p50_ms"] - base_p50) / base_p50 * 100.0
    metrics["tracing.throughput_overhead_pct"] = (
        (base["throughput_ops_s"] - client["throughput_ops_s"]) / base["throughput_ops_s"] * 100.0
    )
    record = {"untraced": base, "traced": client}
    return metrics, record, base["attempted"] + client["attempted"], base["failed"] + client["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark still stops its servers: SIGTERM unwinds
    # through the same finally blocks as an error does.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The audits in this process recompute on the set-based reference
    # kernels; server children get the environment without this override.
    os.environ["ESD_KERNELS"] = "set"
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    run = Run(workload, args.seed, args.seconds)
    try:
        if args.trace:
            values, record, attempted, failed = traced(run)
            units = dict(layers.PER_LAYER)
        else:
            values, record, attempted, failed = untraced(run)
            units = dict(END_TO_END)
        run.leak_checks()
    finally:
        run.cleanup()
    context = {
        "workload": workload.name,
        "why": workload.why,
        "generator": workload.generator,
        "scale": workload.scale,
        "n": run.graph.n,
        "m": run.graph.m,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "connections": CONNECTIONS,
        "closed_loop": True,
        "durable": workload.durable,
        "trace": bool(args.trace),
        "elapsed_s": time.perf_counter() - started,
        "problems": run.problems,
    }
    print("record: " + json.dumps({**context, **record}, sort_keys=True))
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
