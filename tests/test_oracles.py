"""Differential oracle suite: every registered engine against independent
checks on generated graph families.

The engines are checked on families built by
:mod:`repro.graphs.generators`, not only on the fixtures they were tuned
on.  On each input:

* the validator passes on the returned coloring, within its palette;
* an engine that needs a nice graph stays within Δ colors, and
  centralized Brooks (the sequential oracle) reaches the same bound;
* :class:`NotNiceGraphError` is raised exactly when the input is not
  nice, and only by engines that need a nice graph.

The same checks run over every connected graph on at most 7 nodes
(networkx's graph atlas), at two seeds.

Graphs are kept small so every (engine, graph) pair runs in tier-1.  Two
long-diameter families (a 4×130 torus and a chain of K5-minus-an-edge
gadgets) put more than 64 BFS levels between some nodes, so the layer
searches run deep.  Brooks certificates (an even cycle, a theta, a
wheel) planted into small random regular graphs, and a 12×12 torus
dense with 4-cycles, become base-layer DCCs: phase (9) colors them, and
the tight ones (every list exactly its node's in-component degree) go
through the native kernel's hand-back to the Python twin.
"""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter

import networkx as nx
import pytest

from repro import native
from repro.api import get_algorithm, list_algorithms, solve
from repro.baselines.greedy import centralized_brooks
from repro.errors import AlgorithmContractError, NotNiceGraphError
from repro.graphs.generators import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    disjoint_union,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.properties import is_nice
from repro.graphs.validation import validate_coloring
from repro.primitives.list_coloring import ColorWorkspace


def gadget_chain(count: int, k: int = 5) -> Graph:
    """``count`` copies of K_k minus an edge in a row, the two endpoints
    of each missing edge tied to the neighbouring copies: (k-1)-regular
    but for the chain's two ends, about 3 BFS levels per gadget."""
    edges = []
    for g in range(count):
        base = g * k
        edges += [
            (base + i, base + j)
            for i in range(k) for j in range(i + 1, k) if (i, j) != (0, k - 1)
        ]
        if g:
            edges.append((base - 1, base))  # previous copy's k-1 to this copy's 0
    return Graph(count * k, edges)

def planted(certificate, copies: int, n: int, d: int, seed: int) -> Graph:
    """``copies`` disjoint copies of ``certificate`` (k nodes, inner
    edges) joined into a random d-regular graph on n nodes: a matching of
    the host is cut, and each certificate node v takes d - deg(v) of the
    freed ends, so the result is d-regular again."""
    k, edges = certificate
    host = random_regular_graph(n, d, seed=seed)
    degree = Counter(v for edge in edges for v in edge)
    stubs = [n + c * k + v for c in range(copies) for v in range(k) for _ in range(d - degree[v])]
    order = list(host.edges())
    random.Random(seed).shuffle(order)
    cut: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in order:
        if 2 * len(cut) == len(stubs):
            break
        if u not in used and v not in used:
            cut.append((u, v))
            used.update((u, v))
    freed = [end for edge in cut for end in edge]
    removed = set(cut)
    kept = [edge for edge in host.edges() if edge not in removed]
    inner = [(n + c * k + a, n + c * k + b) for c in range(copies) for a, b in edges]
    return Graph(n + copies * k, kept + inner + list(zip(stubs, freed)))


# Snippet 2's Brooks certificates: an even cycle, a theta (two nodes
# joined by three paths) and a wheel.
EVEN_CYCLE = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
THETA = (6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
WHEEL = (5, [(0, i) for i in range(1, 5)] + [(i, i % 4 + 1) for i in range(1, 5)])

CERTIFICATES = {
    "brooks_even_cycle_rrg3": lambda: planted(EVEN_CYCLE, 3, 30, 3, seed=1),
    "brooks_theta_rrg3": lambda: planted(THETA, 3, 30, 3, seed=1),
    "brooks_wheel_rrg4": lambda: planted(WHEEL, 3, 30, 4, seed=3),
    "torus_dcc_12x12": lambda: torus_grid(12, 12),
}

FAMILIES = {
    "torus_4x4": lambda: torus_grid(4, 4),
    "torus_5x6": lambda: torus_grid(5, 6),
    "hypercube_3": lambda: hypercube(3),
    "hypercube_4": lambda: hypercube(4),
    **{
        f"rrg_30_{d}": (lambda d=d: random_regular_graph(30, d, seed=d))
        for d in (3, 4, 5, 6)
    },
    "nice_40_3": lambda: random_nice_graph(40, 3, seed=1),
    "nice_40_5": lambda: random_nice_graph(40, 5, seed=2),
    **{
        f"gallai_{blocks}_s{seed}": (
            lambda blocks=blocks, seed=seed: random_gallai_tree(blocks, seed=seed)
        )
        for blocks, seed in ((1, 0), (1, 3), (4, 1), (6, 2))
    },
    "K5_minus_edge": lambda: complete_graph_minus_edge(5),
    "K6_minus_edge": lambda: complete_graph_minus_edge(6),
    "K1": lambda: complete_graph(1),
    "K2": lambda: complete_graph(2),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "C4": lambda: cycle_graph(4),
    "C7": lambda: cycle_graph(7),
    "P2": lambda: path_graph(2),
    "P6": lambda: path_graph(6),
    "union_torus_K4": lambda: disjoint_union([torus_grid(4, 4), complete_graph(4)]),
    "union_C5_P3": lambda: disjoint_union([cycle_graph(5), path_graph(3)]),
    "union_two_nice": lambda: disjoint_union([
        random_regular_graph(20, 3, seed=4), hypercube(3),
    ]),
    "torus_4x130": lambda: torus_grid(4, 130),
    "gadget_chain_30": lambda: gadget_chain(30),
    **CERTIFICATES,
}

LONG_DIAMETER = ("torus_4x130", "gadget_chain_30")

# The Theorem 3 preset's own contract: it needs Δ >= 4 even on nice graphs.
MIN_DELTA = {"randomized-large": 4}


def check_engine(graph: Graph, algorithm: str, seed: int = 1) -> None:
    """The suite's checks of one engine on one graph: the typed refusal
    when the graph is not nice (or Δ is below the preset's floor), else a
    valid coloring within its palette, within Δ + 1 colors, and within Δ
    when the engine promises Brooks' bound."""
    spec = get_algorithm(algorithm)
    delta = graph.max_degree()
    nice = is_nice(graph)
    if spec.needs_nice and not nice:
        with pytest.raises(NotNiceGraphError):
            solve(graph, algorithm=algorithm, seed=seed, strict=True)
        return
    if delta < MIN_DELTA.get(algorithm, 0):
        with pytest.raises(AlgorithmContractError):
            solve(graph, algorithm=algorithm, seed=seed, strict=True)
        return
    result = solve(graph, algorithm=algorithm, seed=seed, strict=True)
    validate_coloring(graph, list(result.colors), max_colors=result.palette or None)
    # Brooks: χ <= Δ + 1 for every graph, χ <= Δ for every nice one.
    assert result.palette <= delta + 1
    if spec.needs_nice or (nice and spec.palette_bound != "Δ+1"):
        assert result.palette <= delta


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("algorithm", list_algorithms())
def test_engine_against_oracles(algorithm, family):
    check_engine(FAMILIES[family](), algorithm)


@functools.cache
def connected_atlas() -> tuple[Graph, ...]:
    """Every connected graph on at most 7 nodes, one per isomorphism
    class: networkx's graph atlas without its null graph and its
    disconnected entries (996 graphs, K1 included)."""
    graphs = tuple(
        Graph(g.number_of_nodes(), list(g.edges()))
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() and nx.is_connected(g)
    )
    assert len(graphs) == 996
    return graphs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("algorithm", list_algorithms())
def test_engine_against_oracles_on_atlas(algorithm, seed):
    for index, graph in enumerate(connected_atlas()):
        try:
            check_engine(graph, algorithm, seed)
        except (Exception, pytest.fail.Exception) as error:
            error.add_note(f"connected atlas graph {index}: edges {list(graph.edges())}")
            raise


@pytest.mark.parametrize(
    "family", sorted(name for name, build in FAMILIES.items() if is_nice(build()))
)
def test_centralized_brooks_reaches_delta(family):
    graph = FAMILIES[family]()
    validate_coloring(graph, centralized_brooks(graph), max_colors=graph.max_degree())


def test_families_cover_both_sides():
    nice = [name for name, build in FAMILIES.items() if is_nice(build())]
    assert 8 <= len(nice) < len(FAMILIES)


@pytest.mark.parametrize("family", LONG_DIAMETER)
def test_long_diameter_families_are_deep(family):
    graph = FAMILIES[family]()
    assert is_nice(graph) and graph.is_connected()
    assert len(distance_layers(graph, [0])) > 64


def test_planted_certificates_reach_phase_nine(monkeypatch):
    """The certificate families put components into B0, and phase (9)
    colors both kinds: tight ones through the twin and, with the kernel
    loaded, the rest natively."""
    real = ColorWorkspace.degree_list
    tally = Counter()

    def spy(self, components, max_colors):
        handed_back = real(self, components, max_colors)
        tally["components"] += len(components)
        tally["twin"] += len(handed_back)
        return handed_back

    monkeypatch.setattr(ColorWorkspace, "degree_list", spy)
    for family, build in CERTIFICATES.items():
        graph = build()
        assert is_nice(graph), family
        before = tally["components"]
        solve(graph, algorithm="randomized-small", seed=1, strict=True)
        assert tally["components"] > before, family
    assert tally["twin"] > 0
    if native.kernel("degree_list_surplus") is not None:
        assert tally["twin"] < tally["components"]


@pytest.mark.skipif(
    not native.kernel_status().functions,
    reason="native kernel not loaded: the Python twins read adj",
)
@pytest.mark.parametrize("numpy_off", [False, True], ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_randomized_solve_reads_csr_rows_only(family, numpy_off, monkeypatch):
    """A solve builds no graph-wide adjacency cache on its input, also
    when it raises (a graph that is not nice, Δ too small), with
    ``import numpy`` working and blocked.  Each solve gets a fresh copy:
    some generators read ``adj`` while they build."""
    if numpy_off:
        monkeypatch.setitem(sys.modules, "numpy", None)
    built = FAMILIES[family]()
    for algorithm in ("randomized-small", "randomized-large"):
        for strict in (False, True):
            graph = Graph._from_csr(built.n, *built.csr(), built.num_edges)
            try:
                solve(graph, algorithm=algorithm, seed=1, strict=strict)
            except (NotNiceGraphError, AlgorithmContractError):
                pass
            assert graph._adj is None and graph._adj_sets is None
