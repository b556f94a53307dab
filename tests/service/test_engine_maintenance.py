"""Engine-side metric maintenance: the background warmer thread.

With ``warm_metrics`` set, a mutation eventually repopulates the named
scorers' tables off the query path, and ``close()`` stops the thread.
"""

from __future__ import annotations

import time

from repro.graph import paper_example_graph
from repro.metrics import get_metric
from repro.service.engine import QueryEngine


class TestWarmer:
    def test_unknown_warm_metric_fails_at_construction(self):
        try:
            QueryEngine(paper_example_graph(), warm_metrics=["nope"])
        except ValueError:
            return
        raise AssertionError("expected unknown warm metric to raise")

    def test_mutation_triggers_background_warm_pass(self):
        engine = QueryEngine(paper_example_graph(), warm_metrics=["truss"])
        try:
            truss = get_metric("truss")
            computes_before = truss._memo.computes
            engine.update("insert", "warm_u", "warm_v")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                counters = engine.metrics.snapshot()["counters"]
                if counters.get("metric_warm_passes", 0) >= 1:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("warmer never completed a pass")
            assert truss._memo.computes > computes_before
        finally:
            engine.close()
        assert engine._warm_thread is None

    def test_no_warm_metrics_means_no_thread(self):
        engine = QueryEngine(paper_example_graph())
        assert engine._warm_thread is None
        engine.close()
