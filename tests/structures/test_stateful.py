"""Stateful (model-based) hypothesis tests for the core data structures.

Each machine drives the structure under test through arbitrary operation
sequences while mirroring them on a trivially-correct Python model, then
checks full agreement after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core import ESDIndex
from repro.structures import DisjointSet, LazyMaxHeap


#: A small edge universe, so histograms collide on shared size classes.
EDGES = [(u, v) for u in range(5) for v in range(u + 1, 5)]


class ESDIndexMachine(RuleBasedStateMachine):
    """ESDIndex's size-class lists H(c) vs a dict of histograms.

    Sizes run 1..6 on a handful of edges, so updates keep creating
    classes (with back-fill) and dropping them; after every step the
    incrementally maintained lists must equal a bulk load of the model.
    """

    def __init__(self):
        super().__init__()
        self.index = ESDIndex()
        self.model = {}

    @rule(
        edge=st.sampled_from(EDGES),
        sizes=st.lists(st.integers(1, 6), max_size=4),
    )
    def set_edge(self, edge, sizes):
        self.index.set_edge(edge, sizes)
        if sizes:
            self.model[edge] = sizes
        else:
            self.model.pop(edge, None)

    @rule(edge=st.sampled_from(EDGES))
    def remove_edge(self, edge):
        self.index.remove_edge(edge)
        self.model.pop(edge, None)

    @rule(k=st.integers(1, 12), tau=st.integers(1, 7))
    def topk(self, k, tau):
        scores = {
            edge: sum(1 for size in sizes if size >= tau)
            for edge, sizes in self.model.items()
        }
        ranked = sorted(
            ((edge, score) for edge, score in scores.items() if score),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert self.index.topk(k, tau) == ranked[:k]

    @invariant()
    def matches_bulk_load(self):
        self.index.check_invariants()
        rebuilt = ESDIndex.bulk_load(self.model)
        assert self.index.size_classes == rebuilt.size_classes
        for c in rebuilt.size_classes:
            assert self.index.class_list(c) == rebuilt.class_list(c)


class DisjointSetMachine(RuleBasedStateMachine):
    """DisjointSet vs a list-of-sets model."""

    def __init__(self):
        super().__init__()
        self.dsu = DisjointSet()
        self.model = []  # list of sets

    def _model_find(self, x):
        return next((s for s in self.model if x in s), None)

    @rule(x=st.integers(0, 25))
    def add(self, x):
        self.dsu.add(x)
        if self._model_find(x) is None:
            self.model.append({x})

    @rule(x=st.integers(0, 25), y=st.integers(0, 25))
    def union(self, x, y):
        self.dsu.union(x, y)
        sx = self._model_find(x)
        if sx is None:
            sx = {x}
            self.model.append(sx)
        sy = self._model_find(y)
        if sy is None:
            if y not in sx:
                sy = {y}
                self.model.append(sy)
            else:
                sy = sx
        if sx is not sy:
            sx |= sy
            self.model.remove(sy)

    @invariant()
    def matches_model(self):
        assert self.dsu.set_count == len(self.model)
        assert sorted(self.dsu.component_sizes()) == sorted(
            len(s) for s in self.model
        )
        for s in self.model:
            members = sorted(s)
            for a, b in zip(members, members[1:]):
                assert self.dsu.connected(a, b)


class HeapMachine(RuleBasedStateMachine):
    """LazyMaxHeap vs a dict model."""

    def __init__(self):
        super().__init__()
        self.heap = LazyMaxHeap()
        self.model = {}

    @rule(item=st.integers(0, 15), priority=st.integers(-30, 30))
    def push(self, item, priority):
        self.heap.push(item, priority)
        self.model[item] = priority

    @rule()
    def pop(self):
        if not self.model:
            return
        item, priority = self.heap.pop()
        best = max(self.model.values())
        assert priority == best
        # Deterministic tie-break: the smallest item among the best.
        assert item == min(i for i, p in self.model.items() if p == best)
        del self.model[item]

    @rule(item=st.integers(0, 15))
    def discard(self, item):
        assert self.heap.discard(item) == (item in self.model)
        self.model.pop(item, None)

    @invariant()
    def matches_model(self):
        assert len(self.heap) == len(self.model)
        for item, priority in self.model.items():
            assert self.heap.priority_of(item) == priority


TestESDIndexStateful = ESDIndexMachine.TestCase
TestDisjointSetStateful = DisjointSetMachine.TestCase
TestHeapStateful = HeapMachine.TestCase

for case in (TestESDIndexStateful, TestDisjointSetStateful, TestHeapStateful):
    case.settings = settings(max_examples=40, stateful_step_count=30,
                             deadline=None)
