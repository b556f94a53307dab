"""Replication correctness: replicas are bit-identical to a local replay.

For randomized mutation streams (the same generator the persistence
differential tests use), a writer + 2 replicas cluster must satisfy:
at every quiesce point ``v``, each replica's ``topk``/``stats`` answers
over the wire are *bit-identical* to a single-process
:class:`DynamicESDIndex` replayed to version ``v``, and its answers for
the rest of the metric family (``topk``, ``score``, ``stats``) equal the
writer's at ``v`` -- one serve path for both roles.  Failures reuse the
persistence harness's delta-debugging shrinker (``shrink_case`` with a
cluster-specific ``check``) so the report names a minimal stream.
"""

import time

import pytest

from repro.cluster import ReplicaConfig, ReplicaNode, WriterConfig, WriterNode
from repro.core.maintenance import DynamicESDIndex
from repro.graph.generators import gnm_random
from repro.service.client import ServiceClient
from tests.persistence.harness import Case, generate_case, shrink_case

SEEDS = (1, 7, 23)
QUERY_PAIRS = ((1, 1), (5, 1), (10, 2), (4, 3))
CHUNKS = 3  # quiesce points per stream
#: Non-``esd`` metrics whose replica answers must match the writer's.
PARITY_METRICS = ("truss", "common_neighbors")
SCORED_EDGES = 3  # edges of each chunk whose scores are compared


def _wait_applied(replicas, version, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r.applied_version >= version for r in replicas):
            return True
        time.sleep(0.01)
    return False


def _role_view(client, version, edges):
    """One node's answers that replicas and the writer must agree on.

    ``topk`` for the non-``esd`` metrics, ``score`` of ``edges`` under
    every parity metric plus ``esd``, and ``stats`` without the
    replica-only ``role``/``replication`` keys.
    """
    view = {}
    for metric in PARITY_METRICS:
        for k, tau in QUERY_PAIRS:
            view[("topk", metric, k, tau)] = client.request(
                "topk", k=k, tau=tau, metric=metric, min_version=version
            )
    for u, v in edges:
        for metric in ("esd",) + PARITY_METRICS:
            view[("score", metric, u, v)] = client.request(
                "score", u=u, v=v, metric=metric, min_version=version
            )
    stats = client.request("stats", min_version=version)
    stats.pop("role", None)
    stats.pop("replication", None)
    view[("stats",)] = stats
    for key, result in view.items():
        if key[0] == "topk":
            result.pop("cached")
            result.pop("batched")
    return view


def check_cluster_case(case: Case, _tmp_dir=None):
    """Run one trial; return ``None`` on success or a failure description.

    ``_tmp_dir`` is accepted (and ignored) so this oracle slots into
    ``shrink_case`` unchanged.
    """
    base = gnm_random(case.n, case.m, seed=case.seed)
    reference = DynamicESDIndex(gnm_random(case.n, case.m, seed=case.seed))
    writer = WriterNode(base, WriterConfig()).start()
    replicas = [
        ReplicaNode(
            ReplicaConfig(
                writer_host=writer.repl_address[0],
                writer_repl_port=writer.repl_address[1],
                name=f"diff-r{i}",
            )
        ).start()
        for i in range(2)
    ]
    try:
        if not _wait_applied(replicas, 0):
            return "replicas never bootstrapped"
        chunk = max(1, (len(case.ops) + CHUNKS - 1) // CHUNKS)
        for start in range(0, len(case.ops), chunk):
            ops = case.ops[start:start + chunk]
            for action, u, v in ops:
                try:
                    writer.engine.update(action, u, v)
                except (ValueError, KeyError):
                    continue  # inapplicable ops skipped on both sides
                if action == "insert":
                    reference.insert_edge(u, v)
                else:
                    reference.delete_edge(u, v)
            version = writer.engine.graph_version
            assert version == reference.graph_version
            if not _wait_applied(replicas, version):
                return f"replicas never reached version {version}"
            expected = {
                (k, tau): [
                    [u, v, score]
                    for (u, v), score in reference.topk(k, tau)
                ]
                for k, tau in QUERY_PAIRS
            }
            edges = [(u, v) for _action, u, v in ops[:SCORED_EDGES]]
            with ServiceClient(*writer.address) as client:
                writer_view = _role_view(client, version, edges)
            for replica in replicas:
                with ServiceClient(*replica.address) as client:
                    for k, tau in QUERY_PAIRS:
                        result = client.request(
                            "topk", k=k, tau=tau, min_version=version
                        )
                        if result["graph_version"] != version:
                            return (
                                f"{replica.config.name} answered at version "
                                f"{result['graph_version']}, wanted {version}"
                            )
                        if result["items"] != expected[(k, tau)]:
                            return (
                                f"{replica.config.name} topk({k},{tau}) at "
                                f"v{version}: {result['items']} != "
                                f"{expected[(k, tau)]}"
                            )
                    stats = client.request("stats")
                    if (stats["n"], stats["m"]) != (
                        reference.graph.n, reference.graph.m
                    ):
                        return (
                            f"{replica.config.name} stats n/m "
                            f"({stats['n']}, {stats['m']}) != "
                            f"({reference.graph.n}, {reference.graph.m})"
                        )
                    replica_view = _role_view(client, version, edges)
                    for key, expected_result in writer_view.items():
                        if replica_view[key] != expected_result:
                            return (
                                f"{replica.config.name} {key} at "
                                f"v{version}: {replica_view[key]} != "
                                f"writer's {expected_result}"
                            )
        return None
    finally:
        for replica in replicas:
            replica.shutdown()
        writer.shutdown()


@pytest.mark.parametrize("seed", SEEDS)
def test_replicas_bit_identical_to_local_replay(seed, tmp_path_factory):
    case = generate_case(seed, max_n=18, max_ops=24)
    failure = check_cluster_case(case)
    if failure is not None:
        shrunk = shrink_case(
            case,
            lambda: tmp_path_factory.mktemp("cluster_shrink"),
            max_attempts=20,
            check=check_cluster_case,
        )
        pytest.fail(
            f"cluster differential failure: {failure}\n"
            f"minimal reproduction: {shrunk.describe()}"
        )


def test_replica_rejects_stale_read_at_token(tmp_path_factory):
    """A min_version ahead of the replica is refused, never silently stale."""
    writer = WriterNode(
        gnm_random(12, 30, seed=3), WriterConfig()
    ).start()
    replica = ReplicaNode(
        ReplicaConfig(
            writer_host=writer.repl_address[0],
            writer_repl_port=writer.repl_address[1],
            name="stale",
        )
    ).start()
    try:
        assert _wait_applied([replica], 0)
        with ServiceClient(*replica.address) as client:
            from repro.service.client import ServiceError

            with pytest.raises(ServiceError) as info:
                client.request("topk", k=5, min_version=999)
            assert info.value.code == "unavailable"
    finally:
        replica.shutdown()
        writer.shutdown()
