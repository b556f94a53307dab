"""Router behaviour: routing policy, version tokens, degradation, eviction."""

import functools
import socket
import time

import pytest

from tests.conftest import wait_until

from repro.cluster import (
    ReplicaConfig,
    ReplicaNode,
    Router,
    RouterConfig,
    WriterConfig,
    WriterNode,
)
from repro.cluster.router import _Backend
from repro.bench.workloads import LOADGEN_EDGE_BASE
from repro.graph.generators import gnm_random
from repro.loadgen import runner
from repro.service.client import ServiceClient, ServiceError

#: Bounded predicate polling -- no bare sleeps (see tests/conftest.py).
_wait = functools.partial(wait_until, timeout=15.0, interval=0.01)


@pytest.fixture
def cluster():
    """In-process writer + 2 replicas + router, all caught up."""
    writer = WriterNode(
        gnm_random(18, 50, seed=11), WriterConfig()
    ).start()
    replicas = [
        ReplicaNode(
            ReplicaConfig(
                writer_host=writer.repl_address[0],
                writer_repl_port=writer.repl_address[1],
                name=f"r{i}",
            )
        ).start()
        for i in range(2)
    ]
    _wait(
        lambda: all(r.applied_version == 0 for r in replicas),
        message="replica bootstrap",
    )
    router = Router(
        RouterConfig(
            writer=writer.address,
            replicas=[(r.config.name,) + r.address for r in replicas],
            probe_interval=0.05,
            request_timeout=5.0,
        )
    ).start()
    # Connected is not enough: until its first probe answers, the router
    # counts a replica's version as unknown and sends reads to the writer.
    _wait(
        lambda: all(
            entry["connected"] and entry["applied_version"] == 0
            for entry in router.status()["replicas"]
        ) and router.status()["writer"]["connected"],
        message="router backend links",
    )
    yield writer, replicas, router
    router.shutdown()
    for replica in replicas:
        replica.shutdown()
    writer.shutdown()


class TestRouting:
    def test_reads_are_balanced_across_replicas(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            for _ in range(40):
                client.topk(k=5)
        routed = [
            entry["routed"] for entry in router.status()["replicas"]
        ]
        assert sum(routed) >= 40
        assert all(count > 0 for count in routed)
        assert router.status()["writer"]["routed"] == 0  # probes aside

    def test_writes_reach_the_writer(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            result = client.request("update", action="insert", u=900, v=901)
            assert result["applied"] is True
            assert result["graph_version"] == 1
        assert writer.engine.graph_version == 1

    def test_read_your_writes_on_one_connection(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            for i in range(8):
                write = client.request(
                    "update", action="insert", u=700 + i, v=701 + i
                )
                read = client.topk(k=5)
                # Immediately after each acked write, this connection's
                # reads must reflect it -- however stale a replica is.
                assert read.graph_version >= write["graph_version"]

    def test_explicit_min_version_token_is_enforced(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            version = client.request(
                "update", action="insert", u=800, v=801
            )["graph_version"]
        _wait(
            lambda: all(r.applied_version >= version for r in replicas),
            message="replication",
        )
        # A *different* connection carrying the token still sees >= v.
        with ServiceClient(*router.address) as client:
            result = client.request("topk", k=5, min_version=version)
            assert result["graph_version"] >= version

    @pytest.mark.parametrize(
        "op, fields",
        [
            ("update", {"action": "insert", "u": 1, "v": 99}),
            ("watch", {"k": 5, "tau": 2}),
            ("changes", {"watch_id": 1}),
            ("unwatch", {"watch_id": 1}),
        ],
        ids=["update", "watch", "changes", "unwatch"],
    )
    def test_replica_is_read_only(self, cluster, op, fields):
        writer, replicas, router = cluster
        with ServiceClient(*replicas[0].address) as client:
            with pytest.raises(ServiceError) as info:
                client.request(op, **fields)
            assert info.value.code == "read_only"

    def test_writer_down_fails_writes_fast_reads_keep_serving(self, cluster):
        writer, replicas, router = cluster
        writer.shutdown()
        _wait(
            lambda: not router.status()["writer"]["connected"],
            message="router noticing the dead writer",
        )
        with ServiceClient(*router.address) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.request("update", action="insert", u=1, v=2)
            assert info.value.code == "unavailable"
            assert time.monotonic() - start < 1.0  # fail fast, no timeout
            # Reads degrade gracefully to the replicas.
            assert client.topk(k=5).items
            assert client.ping()

    def test_replica_down_reads_fall_back(self, cluster):
        writer, replicas, router = cluster
        for replica in replicas:
            replica.shutdown()
        _wait(
            lambda: not any(
                entry["connected"]
                for entry in router.status()["replicas"]
            ),
            message="router noticing dead replicas",
        )
        with ServiceClient(*router.address) as client:
            assert client.topk(k=5).items  # served by the writer
        assert router.status()["writer"]["routed"] >= 1

    def test_unknown_op_and_ping_are_local(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            assert client.ping()
            with pytest.raises(ServiceError) as info:
                client.request("frobnicate")
            assert info.value.code == "unknown_op"

    def test_loadgen_namespace_uses_the_writer_version(self, cluster):
        """Behind a router, ``stats`` may land on a replica that trails
        acked writes; a load run's edge namespace must still move past
        them, so it takes the router's view of the writer version."""
        writer, replicas, router = cluster
        for replica in replicas:
            replica._tailer.stop()  # the replicas stay at version 0
        with ServiceClient(*router.address) as client:
            version = client.insert_edge(900, 901)["graph_version"]
        assert version == 1
        base = runner.fresh_edge_base(*router.address)
        assert base == LOADGEN_EDGE_BASE + version * runner.TRIAL_EDGE_STRIDE

    def test_cluster_status_shape(self, cluster):
        writer, replicas, router = cluster
        with ServiceClient(*router.address) as client:
            status = client.request("cluster-status")
        assert status["role"] == "router"
        assert status["writer"]["connected"] is True
        assert {entry["name"] for entry in status["replicas"]} == {"r0", "r1"}


def test_unbootstrapped_replica_refuses_reads_but_answers_probes():
    """A replica whose writer never answers serves no state, only probes."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    replica = ReplicaNode(
        ReplicaConfig(
            writer_host="127.0.0.1", writer_repl_port=closed_port, name="orphan"
        )
    ).start()
    try:
        with ServiceClient(*replica.address) as client:
            for op, fields in [
                ("topk", {"k": 5}),
                ("score", {"u": 0, "v": 1}),
                ("stats", {}),
            ]:
                with pytest.raises(ServiceError) as info:
                    client.request(op, **fields)
                assert info.value.code == "unavailable", op
            assert client.ping()
            info = client.request("cluster-info")
            assert info["role"] == "replica"
            assert info["applied_version"] == -1
            assert info["lag"] is None
    finally:
        replica.shutdown()


def test_replica_config_rejects_a_data_dir(tmp_path):
    with pytest.raises(ValueError, match="data_dir"):
        ReplicaConfig(
            writer_host="127.0.0.1", writer_repl_port=1, data_dir=str(tmp_path)
        )


class TestStalenessPolicy:
    def _router_with_fake_replicas(self):
        router = Router(RouterConfig(max_lag=10))
        backends = [
            _Backend("a", "replica", "127.0.0.1", 1),
            _Backend("b", "replica", "127.0.0.1", 2),
        ]
        router._replicas = backends
        return router, backends

    def test_lagging_replica_evicted_and_restored_with_hysteresis(self):
        router, (a, b) = self._router_with_fake_replicas()
        try:
            router._writer_version = 100
            a.applied_version = 95  # lag 5 <= max_lag
            b.applied_version = 80  # lag 20 > max_lag
            router._apply_staleness_policy()
            assert not a.evicted and b.evicted
            # Catching up to lag 8 is not enough (restore at <= max_lag/2).
            b.applied_version = 92
            router._apply_staleness_policy()
            assert b.evicted
            b.applied_version = 96  # lag 4 <= 5: back in the pool
            router._apply_staleness_policy()
            assert not b.evicted
            assert router.metrics.snapshot()["counters"][
                "replicas_evicted"] == 1
        finally:
            router.shutdown()

    def test_unbootstrapped_replica_not_evicted(self):
        router, (a, _b) = self._router_with_fake_replicas()
        try:
            router._writer_version = 100
            a.applied_version = -1  # no state yet: not "lagging", just new
            router._apply_staleness_policy()
            assert not a.evicted
        finally:
            router.shutdown()
