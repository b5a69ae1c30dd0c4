"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs.base import MultiGraph
from repro.graphs.mori import merged_mori_graph, mori_tree


@pytest.fixture
def triangle() -> MultiGraph:
    """A 3-cycle: the smallest graph with a real choice at every vertex."""
    return MultiGraph.from_edges(3, [(2, 1), (3, 2), (3, 1)])


@pytest.fixture
def path4() -> MultiGraph:
    """A path 1-2-3-4."""
    return MultiGraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])


@pytest.fixture
def loop_graph() -> MultiGraph:
    """Two vertices, a connecting edge, and a self-loop at vertex 2."""
    graph = MultiGraph(2)
    graph.add_edge(2, 1)
    graph.add_edge(2, 2)
    return graph


@pytest.fixture
def parallel_graph() -> MultiGraph:
    """Two vertices joined by two parallel edges."""
    return MultiGraph.from_edges(2, [(2, 1), (2, 1)])


@pytest.fixture
def small_tree():
    """A deterministic small Móri tree (seeded)."""
    return mori_tree(30, 0.5, seed=42)


@pytest.fixture
def small_merged():
    """A deterministic small merged Móri graph (seeded)."""
    return merged_mori_graph(20, 2, 0.5, seed=42)


@pytest.fixture
def use_multigraph(monkeypatch):
    """Activator: make in-process trials search mutable MultiGraphs.

    Searches always run on frozen CSR snapshots.  Calling the returned
    function hands every search and degree fit the trial layer runs
    (independent builds, trajectory checkpoints, E6's specimens and
    E12's percolation graph) the MultiGraph form instead, for the rest
    of the test, so a whole experiment can be replayed on the mutable
    oracle and compared.
    """
    import repro.core.experiments as experiments
    import repro.core.trials as trials
    from repro.graphs.frozen import FrozenGraph

    build = trials.build_graph_snapshot
    checkpoints = trials.trajectory_snapshots

    def thawed(graph):
        return graph.thaw() if isinstance(graph, FrozenGraph) else graph

    def activate() -> None:
        monkeypatch.setattr(trials, "freeze", lambda graph: graph)
        monkeypatch.setattr(experiments, "freeze", lambda graph: graph)
        monkeypatch.setattr(
            trials,
            "build_graph_snapshot",
            lambda *args: thawed(build(*args)),
        )
        monkeypatch.setattr(
            trials,
            "trajectory_snapshots",
            lambda *args: [
                (size, thawed(graph)) for size, graph in checkpoints(*args)
            ],
        )

    return activate


@pytest.fixture
def dispatched_specs(monkeypatch):
    """The trial specs the searchability engine hands the runner.

    Wraps ``run_trials`` as :mod:`repro.core.searchability` sees it, so
    a test can pin the cache keys a measurement really dispatches.
    Returns the list the specs are appended to, in dispatch order.
    """
    import repro.core.searchability as searchability

    dispatched = []
    real_run_trials = searchability.run_trials

    def recording_run_trials(specs, **kwargs):
        dispatched.extend(specs)
        return real_run_trials(specs, **kwargs)

    monkeypatch.setattr(searchability, "run_trials", recording_run_trials)
    return dispatched
