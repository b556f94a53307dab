"""End-to-end tracing through the serving stack.

The acceptance bar: with tracing enabled, one uncontended ``topk``
produces a single span tree covering batcher -> cache -> index, and a
durable ``update`` shows the WAL append inside the engine span.
"""

import pytest

from repro.obs.sinks import CollectingSink, span_tree
from repro.obs.trace import TRACER
from repro.persistence.store import DataDirectory
from repro.service.engine import QueryEngine


@pytest.fixture
def sink():
    sink = CollectingSink()
    TRACER.configure(sink)
    yield sink
    TRACER.disable()


def _tree(sink):
    return span_tree(sink.records)


def _children(tree, record):
    return tree.get(record["span_id"], [])


class TestTopKSpanTree:
    def test_single_topk_covers_batcher_cache_index(self, fig1, sink):
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        records = sink.records
        (root,) = [r for r in records if r["parent_id"] is None]
        assert root["name"] == "engine.topk"
        assert root["attrs"]["cache"] == "miss"
        # One trace end to end.
        assert {r["trace_id"] for r in records} == {root["trace_id"]}
        tree = _tree(sink)
        (submit,) = _children(tree, root)
        assert submit["name"] == "batcher.submit"
        assert submit["attrs"]["role"] == "leader"
        (batch,) = _children(tree, submit)
        assert batch["name"] == "engine.batch"
        assert batch["attrs"]["cache_hits"] == 0
        (index,) = _children(tree, batch)
        assert index["name"] == "index.topk"
        assert index["attrs"]["k"] == 5 and index["attrs"]["tau"] == 2

    def test_cache_hit_skips_the_index(self, fig1, sink):
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        sink.clear()
        engine.topk(5, 2)
        names = [r["name"] for r in sink.records]
        assert "index.topk" not in names
        (root,) = [r for r in sink.records if r["parent_id"] is None]
        assert root["attrs"]["cache"] == "hit"


class TestUpdateSpanTree:
    def test_update_traces_maintenance(self, fig1, sink):
        engine = QueryEngine(fig1)
        engine.update("insert", "a", "p")
        tree = _tree(sink)
        (root,) = tree[None]
        assert root["name"] == "engine.update"
        assert root["attrs"]["action"] == "insert"
        assert root["attrs"]["edges_rescored"] >= 1
        (insert,) = _children(tree, root)
        assert insert["name"] == "index.insert_edge"

    def test_durable_update_includes_wal_append(self, fig1, sink, tmp_path):
        store = DataDirectory(tmp_path / "data")
        dyn, _ = store.open(bootstrap_graph=fig1)
        sink.clear()  # drop the bootstrap snapshot spans
        engine = QueryEngine(
            dynamic_index=dyn, store=store
        )
        engine.update("delete", "a", "b")
        tree = _tree(sink)
        (root,) = tree[None]
        assert root["name"] == "engine.update"
        names = {c["name"] for c in _children(tree, root)}
        assert names == {"wal.append", "index.delete_edge"}
        engine.close()


class TestOverheadIsolation:
    def test_disabled_tracer_emits_nothing_from_engine(self, fig1):
        TRACER.disable()
        sink = CollectingSink()
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        engine.update("insert", "a", "p")
        assert sink.records == []
        assert engine.metrics_snapshot()["tracing"]["enabled"] is False
