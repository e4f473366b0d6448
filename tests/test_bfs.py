"""Unit tests for BFS utilities (distances, balls, layers)."""

import random

import networkx as nx
import pytest

from repro.graphs.bfs import (
    bfs_ball,
    bfs_distances,
    bfs_levels,
    bfs_tree,
    distance_layers,
)
from repro.graphs.generators import cycle_graph, path_graph, random_regular_graph, torus_grid
from repro.graphs.graph import Graph


class TestDistances:
    def test_single_source_path(self):
        g = path_graph(5)
        assert bfs_distances(g, [0]) == [0, 1, 2, 3, 4]

    def test_multi_source(self):
        g = path_graph(5)
        assert bfs_distances(g, [0, 4]) == [0, 1, 2, 1, 0]

    def test_max_depth_truncates(self):
        g = path_graph(5)
        assert bfs_distances(g, [0], max_depth=2) == [0, 1, 2, -1, -1]

    def test_allowed_set_blocks_traversal(self):
        g = path_graph(5)
        dist = bfs_distances(g, [0], allowed={0, 1, 3, 4})
        assert dist == [0, 1, -1, -1, -1]

    def test_allowed_predicate(self):
        g = path_graph(5)
        dist = bfs_distances(g, [0], allowed=lambda v: v != 2)
        assert dist[4] == -1

    def test_disallowed_source_is_skipped(self):
        g = path_graph(3)
        assert bfs_distances(g, [0], allowed={1, 2}) == [-1, -1, -1]


class TestBallsAndLevels:
    def test_ball_radius_zero(self):
        g = cycle_graph(6)
        assert bfs_ball(g, 0, 0) == [0]

    def test_ball_radius_one(self):
        g = cycle_graph(6)
        assert sorted(bfs_ball(g, 0, 1)) == [0, 1, 5]

    def test_ball_covers_graph(self):
        g = cycle_graph(6)
        assert sorted(bfs_ball(g, 0, 3)) == list(range(6))

    def test_levels_shape(self):
        g = cycle_graph(8)
        levels = bfs_levels(g, 0, 5)
        assert len(levels) == 6
        assert levels[0] == [0]
        assert len(levels[4]) == 1  # antipode
        assert levels[5] == []  # preserved trailing empty level

    def test_levels_sizes_on_torus(self):
        g = torus_grid(9, 9)
        levels = bfs_levels(g, 0, 2)
        assert len(levels[1]) == 4
        assert len(levels[2]) == 8


class TestBfsTree:
    def test_parent_structure(self):
        g = path_graph(4)
        parent, level = bfs_tree(g, 0, 3)
        assert parent[0] == 0
        assert parent[3] == 2
        assert level == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_truncation(self):
        g = path_graph(6)
        _parent, level = bfs_tree(g, 0, 2)
        assert set(level) == {0, 1, 2}


class TestLayersAndAssignment:
    def test_distance_layers_partition(self):
        g = torus_grid(7, 7)
        layers = distance_layers(g, [0])
        seen = [v for layer in layers for v in layer]
        assert sorted(seen) == list(range(g.n))
        assert layers[0] == [0]

    def test_distance_layers_max_depth(self):
        g = path_graph(10)
        layers = distance_layers(g, [0], max_depth=3)
        assert len(layers) == 4


def networkx_distances(graph, sources, max_depth=None, allowed=None):
    """Oracle for :func:`bfs_distances`: networkx's multi-source
    shortest paths on the subgraph induced by ``allowed`` (a set)."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    if allowed is not None:
        g = g.subgraph(allowed)
    starts = {v for v in sources if v in g}
    dist = [-1] * graph.n
    if starts:
        reached = nx.multi_source_dijkstra_path_length(g, starts, cutoff=max_depth)
        for v, d in reached.items():
            dist[v] = d
    return dist


def check_against_networkx(graph, sources, max_depth=None, allowed=None):
    """Every form of ``allowed`` the search takes gives the oracle's
    distances: a set and a byte mask run the native kernel when it is
    loaded, a predicate runs the Python loop."""
    expected = networkx_distances(graph, sources, max_depth, allowed)
    if allowed is None:
        assert bfs_distances(graph, sources, max_depth) == expected
        return
    mask = bytearray(graph.n)
    for v in allowed:
        mask[v] = 1
    for form in (set(allowed), mask, allowed.__contains__):
        assert bfs_distances(graph, sources, max_depth, form) == expected


class TestNetworkxOracle:
    """Multi-source :func:`bfs_distances` against networkx, with and
    without ``max_depth`` and ``allowed`` masks."""

    @pytest.mark.parametrize("base", [{0}, {0, 50}, {13, 14, 15}])
    def test_torus_multi_source(self, base):
        g = torus_grid(9, 9)
        check_against_networkx(g, base)
        for max_depth in (0, 1, 3):
            check_against_networkx(g, base, max_depth)
        rng = random.Random(len(base))
        allowed = {v for v in range(g.n) if rng.random() < 0.7}
        check_against_networkx(g, base, None, allowed)
        check_against_networkx(g, base, 2, allowed)

    def test_random_regular(self):
        g = random_regular_graph(300, 3, seed=4)
        check_against_networkx(g, {0, 1, 2})
        check_against_networkx(g, {0, 1, 2}, 4)
        rng = random.Random(4)
        allowed = {v for v in range(g.n) if rng.random() < 0.8}
        check_against_networkx(g, {0, 1, 2}, None, allowed)
        check_against_networkx(g, {0, 1, 2}, 3, allowed)

    def test_connected_atlas(self):
        """Every connected graph on at most 7 nodes (networkx's atlas),
        from seeded 1-3 node bases, plain, depth-capped and masked; the
        masks may drop bases and cut the graph apart."""
        rng = random.Random(7)
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() and nx.is_connected(g)]
        assert len(atlas) == 996
        for nx_graph in atlas:
            graph = Graph(nx_graph.number_of_nodes(), list(nx_graph.edges()))
            base = rng.sample(range(graph.n), min(graph.n, rng.randint(1, 3)))
            allowed = {v for v in range(graph.n) if rng.random() < 0.7}
            check_against_networkx(graph, base)
            check_against_networkx(graph, base, rng.randint(0, 2))
            check_against_networkx(graph, base, None, allowed)
            check_against_networkx(graph, base, 1, allowed)
