"""Shared fixtures: canonical graphs used across the test suite."""

from __future__ import annotations

import pytest

from repro import native
from repro.core.dcc import detect_dccs
from repro.graphs.generators import (
    complete_graph_minus_edge,
    high_girth_regular_graph,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)


@pytest.fixture(scope="session")
def cubic_graph():
    """A 300-node random cubic graph (Δ = 3)."""
    return random_regular_graph(300, 3, seed=11)


@pytest.fixture(scope="session")
def four_regular_graph():
    """A 300-node random 4-regular graph."""
    return random_regular_graph(300, 4, seed=12)


@pytest.fixture(scope="session")
def five_regular_graph():
    """A 200-node random 5-regular graph."""
    return random_regular_graph(200, 5, seed=13)


@pytest.fixture(scope="session")
def torus():
    """A 12x13 torus (4-regular, DCCs everywhere)."""
    return torus_grid(12, 13)


@pytest.fixture(scope="session")
def high_girth_cubic():
    """A 600-node cubic graph with girth >= 8 (DCC-free at radius 2-3)."""
    return high_girth_regular_graph(600, 3, girth=8, seed=7)


@pytest.fixture(scope="session")
def irregular_nice():
    """An irregular nice graph with Δ = 5 (boundary nodes everywhere)."""
    return random_nice_graph(250, 5, seed=21)


@pytest.fixture(scope="session")
def small_dcc():
    """K6 minus an edge: a single DCC with Δ = 5."""
    return complete_graph_minus_edge(6)


@pytest.fixture(scope="session")
def python_twins():
    """Run ``fn(*args, **kwargs)`` with every native kernel entry point
    off: the one seam the kernel-vs-twin equivalence tests use (the same
    path a box without a C compiler runs, for DCC detection and list
    coloring alike)."""

    def run(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "kernel", lambda name: None)
            return fn(*args, **kwargs)

    return run


@pytest.fixture(scope="session")
def detect_python(python_twins):
    """``detect_dccs`` forced onto its pure-Python twin."""

    def run(graph, radius, **kwargs):
        return python_twins(detect_dccs, graph, radius, **kwargs)

    return run
