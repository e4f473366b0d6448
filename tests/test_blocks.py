"""Block decomposition tests, cross-validated against networkx."""

import random

import networkx as nx
import pytest

from repro.graphs.blocks import biconnected_components
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_gallai_tree,
)
from repro.graphs.graph import Graph


def _nx_blocks(g_nx):
    return {
        tuple(sorted(set().union(*map(set, comp))))
        for comp in map(list, nx.biconnected_component_edges(g_nx))
    }


class TestAgainstNetworkx:
    @pytest.mark.parametrize("trial", range(60))
    def test_random_gnp(self, trial):
        rng = random.Random(trial)
        n = rng.randrange(2, 40)
        p = rng.uniform(0.04, 0.5)
        g_nx = nx.gnp_random_graph(n, p, seed=trial)
        g = Graph(n, list(g_nx.edges()))
        ours = biconnected_components(g)
        assert {tuple(b) for b in ours.blocks} == _nx_blocks(g_nx)
        assert ours.cut_vertices == set(nx.articulation_points(g_nx))

    @pytest.mark.parametrize("seed", range(10))
    def test_gallai_trees(self, seed):
        g = random_gallai_tree(8, seed=seed)
        g_nx = nx.Graph(list(g.edges()))
        g_nx.add_nodes_from(range(g.n))
        ours = biconnected_components(g)
        assert {tuple(b) for b in ours.blocks} == _nx_blocks(g_nx)


class TestEdgeCases:
    def test_single_edge_is_one_block(self):
        g = Graph(2, [(0, 1)])
        d = biconnected_components(g)
        assert d.blocks == [[0, 1]]
        assert d.cut_vertices == set()

    def test_path_blocks_are_edges(self):
        g = path_graph(5)
        d = biconnected_components(g)
        assert len(d.blocks) == 4
        assert all(len(b) == 2 for b in d.blocks)
        assert d.cut_vertices == {1, 2, 3}

    def test_cycle_is_single_block(self):
        d = biconnected_components(cycle_graph(7))
        assert len(d.blocks) == 1
        assert len(d.blocks[0]) == 7
        assert d.cut_vertices == set()

    def test_clique_is_single_block(self):
        d = biconnected_components(complete_graph(6))
        assert len(d.blocks) == 1

    def test_isolated_vertices_have_no_blocks(self):
        g = Graph(3, [(0, 1)])
        d = biconnected_components(g)
        assert d.blocks_of_node[2] == []

    def test_bowtie_cut_vertex(self):
        # two triangles sharing node 2
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        d = biconnected_components(g)
        assert d.cut_vertices == {2}
        assert len(d.blocks) == 2
        assert d.blocks_of_node[2] == [0, 1] or d.blocks_of_node[2] == [1, 0]
