"""Unit tests for the core Graph structure."""

import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0
        assert g.min_degree() == 0

    def test_single_node(self):
        g = Graph(1)
        assert g.degree(0) == 0
        assert g.is_connected()

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_edges == 3
        assert g.degrees() == [2, 2, 2]
        assert g.max_degree() == 2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_from_adjacency_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = Graph.from_adjacency(g.adj)
        assert sorted(g2.edges()) == sorted(g.edges())

    def test_from_adjacency_rejects_asymmetric(self):
        with pytest.raises(GraphError):
            Graph.from_adjacency([[1], []])


class TestQueries:
    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_edges_iterates_once_per_edge(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        edges = list(g.edges())
        assert len(edges) == 4
        assert all(u < v for u, v in edges)

    def test_adjacency_sets_cached(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.adjacency_sets() is g.adjacency_sets()

    def test_nodes_range(self):
        assert list(Graph(3).nodes()) == [0, 1, 2]


class TestConnectivity:
    def test_connected_components_split(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_is_connected(self):
        assert Graph(3, [(0, 1), (1, 2)]).is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()


class TestDerived:
    def test_subgraph_relabeling(self):
        g = Graph(5, [(0, 2), (2, 4), (1, 3)])
        sub, originals = g.subgraph([0, 2, 4])
        assert originals == [0, 2, 4]
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_drops_outside_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub, originals = g.subgraph([0, 1, 3])
        assert sorted(sub.edges()) == [(0, 1)]

    def test_complement_within(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        non_edges = g.complement_within([0, 1, 2, 3])
        assert (0, 2) in non_edges and (0, 3) in non_edges and (1, 3) in non_edges
        assert (0, 1) not in non_edges

    def test_subgraph_of_empty_set(self):
        g = Graph(3, [(0, 1)])
        sub, originals = g.subgraph([])
        assert sub.n == 0 and originals == []
