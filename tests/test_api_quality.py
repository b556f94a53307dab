"""API quality gates: exports exist, are documented, and stay consistent."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.graph",
    "repro.cliques",
    "repro.structures",
    "repro.analytics",
    "repro.bench",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} exported but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every exported function/class carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{package}: missing docstrings: {undocumented}"


def test_public_methods_documented():
    """Public methods of the flagship classes carry docstrings."""
    from repro import DynamicESDIndex, ESDIndex, Graph
    from repro.core import TopKMonitor, VertexESDIndex
    from repro.structures import DisjointSet, EdgeComponentSets, LazyMaxHeap

    undocumented = []
    for cls in (Graph, ESDIndex, DynamicESDIndex, VertexESDIndex,
                TopKMonitor, DisjointSet, EdgeComponentSets, LazyMaxHeap):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) and not inspect.getdoc(member):
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


def test_no_export_name_collisions():
    """Top-level re-exports must resolve to a single object each."""
    import repro
    import repro.core
    import repro.graph

    for name in repro.__all__:
        if name.startswith("__"):
            continue
        owners = []
        for module in (repro.core, repro.graph):
            if name in getattr(module, "__all__", ()):
                owners.append(getattr(module, name))
        if len(owners) == 2:
            assert owners[0] is owners[1], f"conflicting export: {name}"


def test_version_consistent_with_pyproject():
    import re
    from pathlib import Path

    import repro

    pyproject = (Path(repro.__file__).parents[2] / "pyproject.toml").read_text()
    match = re.search(r'^version = "(.+)"', pyproject, flags=re.M)
    assert match
    assert repro.__version__ == match.group(1)
