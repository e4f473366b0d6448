"""Structure-theory predicates: cliques, odd cycles, Gallai trees, DCCs.

Includes the brute-force cross-validation of Theorem 8 on small graphs:
a graph is degree-choosable iff it is not a Gallai tree.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.errors import NotNiceGraphError
from repro.graphs.generators import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_regular_graph,
    random_tree,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    assert_nice,
    girth_up_to,
    is_clique_nodes,
    is_complete,
    is_cycle_graph,
    is_degree_choosable_component,
    is_gallai_tree,
    is_nice,
    is_odd_cycle_nodes,
    is_path_graph,
)


class TestCliqueAndCycle:
    def test_clique_nodes(self):
        g = complete_graph(5)
        assert is_clique_nodes(g, range(5))
        assert is_clique_nodes(g, [0, 2, 4])
        assert is_clique_nodes(g, [0])
        assert is_clique_nodes(g, [0, 1])

    def test_non_clique(self):
        g = cycle_graph(5)
        assert not is_clique_nodes(g, range(5))

    def test_odd_cycle_nodes(self):
        g = cycle_graph(7)
        assert is_odd_cycle_nodes(g, range(7))

    def test_even_cycle_is_not_odd(self):
        g = cycle_graph(8)
        assert not is_odd_cycle_nodes(g, range(8))

    def test_triangle_is_both(self):
        g = complete_graph(3)
        assert is_clique_nodes(g, range(3))
        assert is_odd_cycle_nodes(g, range(3))

    def test_disjoint_triangles_not_one_cycle(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_odd_cycle_nodes(g, range(6))

    def test_chorded_cycle_not_odd_cycle(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert not is_odd_cycle_nodes(g, range(5))


class TestWholeGraphShapes:
    def test_is_complete(self):
        assert is_complete(complete_graph(4))
        assert not is_complete(cycle_graph(4))

    def test_is_cycle_graph(self):
        assert is_cycle_graph(cycle_graph(6))
        assert not is_cycle_graph(path_graph(6))
        assert not is_cycle_graph(complete_graph(3)) or True  # K3 == C3
        assert is_cycle_graph(complete_graph(3))

    def test_is_path_graph(self):
        assert is_path_graph(path_graph(4))
        assert is_path_graph(path_graph(1))
        assert not is_path_graph(cycle_graph(4))


class TestNice:
    def test_regular_graph_is_nice(self):
        assert is_nice(random_regular_graph(40, 3, seed=1))

    def test_excluded_families(self):
        assert not is_nice(complete_graph(5))
        assert not is_nice(cycle_graph(8))
        assert not is_nice(path_graph(8))

    def test_disconnected_is_not_nice(self):
        assert not is_nice(Graph(4, [(0, 1), (2, 3)]))

    def test_assert_nice_raises_with_reason(self):
        with pytest.raises(NotNiceGraphError, match="complete"):
            assert_nice(complete_graph(4))
        with pytest.raises(NotNiceGraphError, match="[Cc]ycle"):
            assert_nice(cycle_graph(5))
        with pytest.raises(NotNiceGraphError, match="[Pp]ath"):
            assert_nice(path_graph(5))
        with pytest.raises(NotNiceGraphError, match="connected"):
            assert_nice(Graph(4, [(0, 1), (2, 3)]))

    def test_assert_nice_accepts(self):
        assert_nice(torus_grid(5, 5))


class TestGallaiTrees:
    @pytest.mark.parametrize("seed", range(12))
    def test_generator_produces_gallai_trees(self, seed):
        assert is_gallai_tree(random_gallai_tree(6, seed=seed))

    def test_trees_are_gallai(self):
        assert is_gallai_tree(random_tree(30, seed=3))

    def test_odd_cycle_is_gallai(self):
        assert is_gallai_tree(cycle_graph(9))

    def test_even_cycle_is_not_gallai(self):
        assert not is_gallai_tree(cycle_graph(8))

    def test_torus_is_not_gallai(self):
        assert not is_gallai_tree(torus_grid(4, 4))

    def test_clique_is_gallai(self):
        assert is_gallai_tree(complete_graph(5))


class TestDegreeChoosableComponents:
    def test_k_minus_edge_is_dcc(self):
        g = complete_graph_minus_edge(5)
        assert is_degree_choosable_component(g, range(5))

    def test_clique_is_not_dcc(self):
        assert not is_degree_choosable_component(complete_graph(5), range(5))

    def test_odd_cycle_is_not_dcc(self):
        assert not is_degree_choosable_component(cycle_graph(7), range(7))

    def test_even_cycle_is_dcc(self):
        assert is_degree_choosable_component(cycle_graph(6), range(6))

    def test_small_sets_are_not_dccs(self):
        g = complete_graph(4)
        assert not is_degree_choosable_component(g, [0, 1, 2])

    def test_disconnected_set_is_not_dcc(self):
        g = Graph(8, list(cycle_graph(4).edges()) + [(4 + u, 4 + v) for u, v in cycle_graph(4).edges()])
        assert not is_degree_choosable_component(g, range(8))

    def test_non_two_connected_is_not_dcc(self):
        # two 4-cycles sharing one vertex: connected but has a cut vertex
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
        g = Graph(7, edges)
        assert not is_degree_choosable_component(g, range(7))


class TestTheorem8BruteForce:
    """Theorem 8: not degree-choosable <=> Gallai tree.

    For small connected graphs, brute-force degree-choosability (over all
    list assignments from a bounded universe) and compare with the
    Gallai-tree predicate.
    """

    def _is_degree_choosable_bruteforce(self, g: Graph) -> bool:
        """Exhaustive over every assignment of deg(v)-lists from the
        universe, up to relabeling the universe — which cannot change
        whether an assignment is colorable.  So node 0 takes {1..d0},
        and node 1 one list per possible overlap with it."""
        universe_size = max(6, g.max_degree() + 2)
        universe = range(1, universe_size + 1)
        sizes = [max(1, g.degree(v)) for v in range(g.n)]
        first = tuple(range(1, sizes[0] + 1))
        seconds = [
            tuple(range(1, overlap + 1))
            + tuple(range(sizes[0] + 1, sizes[0] + 1 + sizes[1] - overlap))
            for overlap in range(
                max(0, sizes[1] - (universe_size - sizes[0])),
                min(sizes[0], sizes[1]) + 1,
            )
        ]
        rest = [itertools.combinations(universe, size) for size in sizes[2:]]
        for lists in itertools.product([first], seconds, *rest):
            if not self._has_proper_coloring(g, lists):
                return False
        return True

    @staticmethod
    def _has_proper_coloring(g: Graph, lists) -> bool:
        """Backtracking over the lists in node order; the first proper
        coloring found ends the search."""
        colors = [0] * g.n
        earlier = [[u for u in g.adj[v] if u < v] for v in range(g.n)]

        def extend(v: int) -> bool:
            if v == g.n:
                return True
            for color in lists[v]:
                if all(colors[u] != color for u in earlier[v]):
                    colors[v] = color
                    if extend(v + 1):
                        return True
            return False

        return extend(0)

    @pytest.mark.parametrize("seed", range(25))
    def test_equivalence_on_small_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 6)
        g_nx = nx.gnp_random_graph(n, 0.6, seed=seed)
        if not nx.is_connected(g_nx):
            pytest.skip("disconnected sample")
        g = Graph(n, list(g_nx.edges()))
        assert self._is_degree_choosable_bruteforce(g) == (not is_gallai_tree(g))


class TestGirth:
    def test_torus_girth(self):
        assert girth_up_to(torus_grid(5, 5), 10) == 4

    def test_cycle_girth(self):
        assert girth_up_to(cycle_graph(9), 20) == 9

    def test_tree_has_no_cycle(self):
        assert girth_up_to(random_tree(40, seed=2), 15) is None

    def test_cap_respected(self):
        assert girth_up_to(cycle_graph(9), 5) is None

    def test_hypercube_girth(self):
        assert girth_up_to(hypercube(4), 8) == 4
