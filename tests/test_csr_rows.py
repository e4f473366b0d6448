"""Solves read CSR rows only, and graphs pickle as their CSR buffers.

* A solve on a fresh graph leaves ``graph.adj`` and
  ``graph.adjacency_sets()`` unbuilt, with ``import numpy`` working and
  blocked (``src/`` imports no numpy either way; ``tests/test_oracles.py``
  runs the same check over its families on the randomized specs).
  Skipped only when the native kernel is not loaded: the pure-Python
  twins of its entry points still read ``adj``.
* The Theorem 5 token walks of the incremental engine read CSR rows too:
  a stream of inserts builds no adjacency lists on its ``DynamicGraph``.
* A pickled graph carries its two CSR buffers, ``n`` and the edge count,
  and never the list or set caches; a :class:`DynamicGraph` comes back
  as one, with the same rows.
* The per-row accessors answer from the CSR row while the caches are
  cold, and agree with the cached answers.
"""

from __future__ import annotations

import pickle
import random
import sys

import pytest

from repro import native
from repro.analysis.harness import carve_matching
from repro.api import solve
from repro.core.incremental import IncrementalColoring
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import high_girth_regular_graph, random_regular_graph
from repro.graphs.graph import Graph

needs_kernel = pytest.mark.skipif(
    not native.kernel_status().functions,
    reason="native kernel not loaded: the Python twins read adj",
)


def assert_caches_cold(graph: Graph) -> None:
    assert graph._adj is None and graph._adj_sets is None


def fresh(graph: Graph) -> Graph:
    """The same rows in a new graph with every cache cold."""
    offsets, indices = graph.csr()
    return Graph._from_csr(graph.n, offsets, indices, graph.num_edges)


@pytest.fixture(scope="module")
def rrg8():
    return random_regular_graph(512, 8, seed=3)


@pytest.fixture(scope="module")
def girth9_cubic():
    return high_girth_regular_graph(512, 3, 9, seed=1)


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    """``no-numpy`` blocks ``import numpy``, as on a box without it."""
    if request.param == "no-numpy":
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


@needs_kernel
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name", ["rrg8", "girth9_cubic"])
def test_auto_solve_builds_no_adjacency_cache(request, name, strict, numpy_mode):
    graph = fresh(request.getfixturevalue(name))
    solve(graph, seed=1, strict=strict)
    assert_caches_cold(graph)


@needs_kernel
def test_theorem5_walks_build_no_adjacency_lists(monkeypatch):
    """300 carved-matching inserts into an n=8192, Δ=8 rrg: the greedy
    rung and the Theorem 5 walks (``fix_uncolored_node``) read
    ``neighbors_csr``, so ``DynamicGraph.adj`` is never built."""
    builds = []
    real = DynamicGraph.adj

    def counted(self):
        if self._adj is None:
            builds.append(self.n)
        return real.fget(self)

    monkeypatch.setattr(DynamicGraph, "adj", property(counted))
    graph = random_regular_graph(8192, 8, seed=1)
    matching = carve_matching(graph, 300)
    base = graph.apply_updates(removed=matching)
    engine = IncrementalColoring.from_result(base, solve(base, seed=1))
    for u, v in matching:
        engine.insert_edge(u, v)
    modes = engine.totals["repair_modes"]
    assert set(modes) - {"greedy"}, f"no Theorem 5 walk ran: {modes}"
    assert builds == []


class TestPickle:
    def test_solved_graph_pickles_as_its_csr_buffers(self, rrg8):
        graph = fresh(rrg8)
        solve(graph, seed=1)
        # Even with the caches built, they do not travel.
        assert graph.adj and graph.adjacency_sets()
        offsets, indices = graph.csr()
        blob = pickle.dumps(graph)
        assert len(blob) <= len(offsets.tobytes()) + len(indices.tobytes()) + 1024
        back = pickle.loads(blob)
        assert type(back) is Graph
        assert_caches_cold(back)
        assert back.n == graph.n and back.num_edges == graph.num_edges
        back_offsets, back_indices = back.csr()
        assert back_offsets.tobytes() == offsets.tobytes()
        assert back_indices.tobytes() == indices.tobytes()
        assert solve(back, seed=1).content_digest() == solve(graph, seed=1).content_digest()

    def test_empty_graph_round_trips(self):
        back = pickle.loads(pickle.dumps(Graph(0)))
        assert (back.n, back.num_edges, back.degrees()) == (0, 0, [])

    @pytest.mark.parametrize("mutate", [False, True])
    def test_dynamic_graph_round_trips_as_dynamic(self, mutate):
        dyn = DynamicGraph.from_graph(random_regular_graph(64, 4, seed=5))
        if mutate:
            dyn.delete_edge(*next(iter(dyn.edges())))
        back = pickle.loads(pickle.dumps(dyn))
        assert type(back) is DynamicGraph
        assert back.n == dyn.n and back.num_edges == dyn.num_edges
        assert [back.neighbors(v) for v in range(back.n)] == [
            dyn.neighbors(v) for v in range(dyn.n)
        ]
        assert back.max_degree() == dyn.max_degree()
        # The copy stays updatable, independently of the original.
        w = next(x for x in range(1, back.n) if not back.has_edge(0, x))
        back.insert_edge(0, w)
        assert back.has_edge(0, w) and not dyn.has_edge(0, w)


class TestPerRowAccessors:
    @pytest.fixture
    def pair(self):
        """A cold graph and a copy with every cache built."""
        graph = random_regular_graph(200, 5, seed=9)
        warm = fresh(graph)
        assert warm.adj and warm.adjacency_sets()
        return fresh(graph), warm

    def test_neighbors_and_edges_match_the_cached_rows(self, pair):
        cold, warm = pair
        assert [cold.neighbors(v) for v in range(cold.n)] == warm.adj
        assert list(cold.edges()) == list(warm.edges())
        assert_caches_cold(cold)

    def test_has_edge_matches_the_cached_sets(self, pair):
        cold, warm = pair
        rng = random.Random(4)
        probes = [(rng.randrange(cold.n), rng.randrange(cold.n)) for _ in range(2000)]
        probes += list(warm.edges())
        assert [cold.has_edge(u, v) for u, v in probes] == [
            warm.has_edge(u, v) for u, v in probes
        ]
        assert_caches_cold(cold)

    def test_subgraph_and_complement_read_rows(self, pair):
        cold, warm = pair
        nodes = list(range(0, cold.n, 3))
        index = {v: i for i, v in enumerate(nodes)}
        sub, originals = cold.subgraph(reversed(nodes))
        assert originals == nodes
        assert [sub.neighbors(i) for i in range(sub.n)] == [
            [index[w] for w in warm.adj[v] if w in index] for v in nodes
        ]
        few = nodes[:12]
        sets = warm.adjacency_sets()
        assert cold.complement_within(few) == [
            (u, v) for i, u in enumerate(few) for v in few[i + 1:] if v not in sets[u]
        ]
        assert_caches_cold(cold)
