"""Edge cases at the cache/version and admission-control boundaries.

The result cache is keyed by ``(k, τ, graph_version)``, so correctness
hinges on exactly when the version moves: a *failed* mutation must leave
both the version and the cached answers intact, while the retried
success must invalidate.  The backpressure tests pin the behaviour of a
saturated admission queue: rejected loudly, recovered cleanly.
"""

import threading

import pytest

from tests.conftest import wait_until

from repro.graph import paper_example_graph
from repro.service import (
    ESDServer,
    QueryEngine,
    ServerConfig,
    ServiceClient,
    ServiceError,
)


class TestCacheAcrossEqualVersions:
    def test_failed_insert_keeps_version_and_cache(self, fig1):
        engine = QueryEngine(fig1)
        first = engine.topk(5, 2)
        assert not first["cached"]
        version = engine.graph_version
        existing = tuple(fig1.edges())[0]
        with pytest.raises(ValueError):
            engine.update("insert", *existing)
        assert engine.graph_version == version
        again = engine.topk(5, 2)
        assert again["cached"]
        assert again["items"] == first["items"]

    def test_failed_delete_keeps_cache_hot(self, fig1):
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        with pytest.raises(KeyError):
            engine.update("delete", "nope-1", "nope-2")
        assert engine.topk(5, 2)["cached"]

    def test_failed_then_retried_mutation_invalidates_once(self, fig1):
        """A failed delete leaves the cache warm; the retried (successful)
        insert bumps the version, so the next query misses and recomputes
        against the new graph."""
        engine = QueryEngine(fig1)
        warm = engine.topk(5, 2)
        with pytest.raises(KeyError):
            engine.update("delete", "a", "not-a-vertex")
        assert engine.topk(5, 2)["cached"]

        applied = engine.update("insert", "a", "not-a-vertex")
        assert applied["graph_version"] == warm["graph_version"] + 1
        fresh = engine.topk(5, 2)
        assert not fresh["cached"]
        assert fresh["graph_version"] == warm["graph_version"] + 1

    def test_failed_mutation_appends_no_wal_record(self, fig1, tmp_path):
        """With a store attached, preconditions run before the WAL append:
        a rejected mutation must leave the log untouched, or replay would
        reapply an operation the server never acknowledged."""
        from repro.persistence import DataDirectory

        store = DataDirectory(str(tmp_path / "data"), fsync=False)
        dyn, _ = store.open(bootstrap_graph=fig1)
        engine = QueryEngine(dynamic_index=dyn, store=store)
        header_only = store.wal.size_bytes()  # fresh log: header, no records
        existing = tuple(fig1.edges())[0]
        with pytest.raises(ValueError):
            engine.update("insert", *existing)
        with pytest.raises(KeyError):
            engine.update("delete", "ghost-1", "ghost-2")
        assert store.wal.size_bytes() == header_only
        assert engine.metrics.snapshot()["counters"].get("wal_appends", 0) == 0
        engine.close()

    def test_cache_shared_across_connections(self):
        """Two clients at the same graph_version share one cached answer."""
        server = ESDServer(
            paper_example_graph(), ServerConfig(port=0)
        ).start()
        try:
            with ServiceClient(*server.address) as one:
                first = one.topk(k=5, tau=2)
            with ServiceClient(*server.address) as two:
                second = two.topk(k=5, tau=2)
            assert second.cached
            assert second.items == first.items
            assert second.graph_version == first.graph_version
        finally:
            server.shutdown()


def _wait_slot_taken(server):
    """Block until the in-flight ``sleep`` request holds the one slot."""
    wait_until(
        lambda: server.engine.metrics_snapshot()["counters"].get(
            "inflight", 0
        ) >= 1,
        message="the sleeper taking the only admission slot",
    )


class TestBackpressureSaturation:
    def _server(self, **overrides):
        config = dict(
            port=0,
            debug=True,
            max_pending=1,
            queue_timeout=0.15,
        )
        config.update(overrides)
        return ESDServer(paper_example_graph(), ServerConfig(**config)).start()

    def test_saturated_queue_rejects_with_overloaded(self):
        server = self._server()
        try:
            blocker = ServiceClient(*server.address)
            done = threading.Event()

            def occupy():
                blocker.request("sleep", seconds=1.5)
                done.set()

            thread = threading.Thread(target=occupy, daemon=True)
            thread.start()
            _wait_slot_taken(server)
            with ServiceClient(*server.address) as victim:
                with pytest.raises(ServiceError) as info:
                    victim.topk(k=3, tau=1)
                assert info.value.code == "overloaded"
                assert "capacity" in info.value.message
            done.wait(timeout=5)
            thread.join(timeout=5)
            blocker.close()
        finally:
            server.shutdown()

    def test_server_recovers_after_overload(self):
        """Once the slot frees, the same connection serves normally --
        overload is per-request backpressure, not a failure state."""
        server = self._server()
        try:
            blocker = ServiceClient(*server.address)
            thread = threading.Thread(
                target=lambda: blocker.request("sleep", seconds=0.8),
                daemon=True,
            )
            thread.start()
            _wait_slot_taken(server)
            with ServiceClient(*server.address) as client:
                with pytest.raises(ServiceError):
                    client.topk(k=3, tau=1)
                thread.join(timeout=5)
                reply = client.topk(k=3, tau=1)
                assert len(reply.items) == 3
            blocker.close()
        finally:
            server.shutdown()

    def test_overload_rejections_counted_in_metrics(self):
        server = self._server()
        try:
            blocker = ServiceClient(*server.address)
            thread = threading.Thread(
                target=lambda: blocker.request("sleep", seconds=0.8),
                daemon=True,
            )
            thread.start()
            _wait_slot_taken(server)
            with ServiceClient(*server.address) as client:
                with pytest.raises(ServiceError):
                    client.topk(k=3, tau=1)
                thread.join(timeout=5)
                counters = client.metrics()["counters"]
                rejected = counters.get("rejected_overload", 0)
            assert rejected >= 1
            blocker.close()
        finally:
            server.shutdown()
