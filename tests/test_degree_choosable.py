"""Tests for the constructive degree-list colorer (Theorem 8).

Includes the brute-force agreement test: on small instances, the
constructive decision (colorable / infeasible) matches exhaustive search.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degree_choosable import (
    backtracking_list_color,
    color_against_outside,
    degree_list_color,
)
from repro.errors import InfeasibleListColoringError
from repro.graphs.generators import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import is_gallai_tree


def _check(graph, lists):
    colors = degree_list_color(graph, lists)
    for u, v in graph.edges():
        assert colors[u] != colors[v]
    for v in range(graph.n):
        assert colors[v] in lists[v]
    return colors


class TestConstructiveCases:
    def test_dcc_with_tight_lists(self):
        g = complete_graph_minus_edge(5)
        _check(g, [set(range(1, 5)) for _ in range(5)])

    def test_even_cycle_tight(self):
        _check(cycle_graph(8), [{1, 2} for _ in range(8)])

    def test_even_cycle_distinct_pairs(self):
        # unequal 2-lists on an even cycle go through case 3a
        lists = [{1, 2}, {1, 2}, {2, 3}, {1, 2}, {1, 2}, {1, 3}]
        _check(cycle_graph(6), [set(s) for s in lists])

    def test_surplus_node(self):
        g = complete_graph(4)
        lists = [set(range(1, 5)), {1, 2, 3}, {1, 2, 3}, {2, 3, 4}]
        _check(g, lists)

    def test_block_reduction(self):
        # even cycle with a pendant path: reduction peels the path
        edges = list(cycle_graph(6).edges()) + [(0, 6), (6, 7)]
        g = Graph(8, edges)
        lists = [set(range(1, g.degree(v) + 1)) for v in range(8)]
        _check(g, lists)

    def test_singleton(self):
        assert degree_list_color(Graph(1), [{3}]) == [3]

    def test_single_edge_distinct_lists(self):
        g = Graph(2, [(0, 1)])
        assert degree_list_color(g, [{1}, {2}]) in ([1, 2],)


class TestInfeasibleCases:
    def test_odd_cycle_tight(self):
        with pytest.raises(InfeasibleListColoringError):
            degree_list_color(cycle_graph(7), [{1, 2} for _ in range(7)])

    def test_tight_clique(self):
        with pytest.raises(InfeasibleListColoringError):
            degree_list_color(complete_graph(4), [set(range(1, 4)) for _ in range(4)])

    def test_single_edge_same_singleton(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InfeasibleListColoringError):
            degree_list_color(g, [{1}, {1}])

    def test_rejects_undersized_lists(self):
        g = complete_graph(3)
        with pytest.raises(InfeasibleListColoringError, match="degree"):
            degree_list_color(g, [{1}, {1, 2}, {1, 2}])


class TestOneBasedLists:
    """Color 0 is UNCOLORED: a list holding it (or anything below 1) is
    refused up front, naming the node and the color."""

    def test_path_with_color_zero(self):
        # Used to crash a feasible instance with an untyped AssertionError.
        with pytest.raises(ValueError, match="node 0: list color 0 < 1"):
            degree_list_color(path_graph(2), [{0, 1}, {0, 1}])

    def test_even_cycle_with_color_zero(self):
        # Used to "succeed" with [0, 1, 0, 1], half the nodes uncolored.
        with pytest.raises(ValueError, match="node 0: list color 0 < 1"):
            degree_list_color(cycle_graph(4), [{0, 1}] * 4)

    def test_names_the_first_offending_node(self):
        with pytest.raises(ValueError, match="node 2: list color -3 < 1"):
            degree_list_color(path_graph(3), [{1, 2}, {1, 2}, {2, -3}])


class TestColorAgainstOutsideRange:
    """A member outside ``0..n-1`` is refused before anything is written,
    naming the node and n."""

    @pytest.mark.parametrize("member", [-1, 4])
    def test_out_of_range_member(self, member):
        # -1 used to read an empty row and color node 3 (via colors[-1]);
        # 4 raised a bare "array index out of range".
        colors = [0, 0, 0, 0]
        with pytest.raises(IndexError, match=rf"node {member} is out of range for n=4"):
            color_against_outside(path_graph(4), colors, [member], 3)
        assert colors == [0, 0, 0, 0]

    def test_in_range_members_still_colored(self):
        colors = [0, 0, 0, 0]
        assert color_against_outside(path_graph(4), colors, [3, 2], 3) == [2, 3]
        assert colors[2] != colors[3] and min(colors[2:]) >= 1


class TestBrooksColoring:
    """Δ-lists on Δ-regular nice graphs — the centralized Brooks case."""

    @pytest.mark.parametrize(
        "n,d,seed", [(60, 3, 1), (80, 4, 2), (60, 5, 3), (200, 3, 9), (100, 6, 5)]
    )
    def test_random_regular(self, n, d, seed):
        g = random_regular_graph(n, d, seed=seed)
        _check(g, [set(range(1, d + 1)) for _ in range(n)])

    def test_torus(self):
        g = torus_grid(7, 9)
        _check(g, [set(range(1, 5)) for _ in range(g.n)])

    def test_hypercube(self):
        g = hypercube(4)
        _check(g, [set(range(1, 5)) for _ in range(g.n)])

    @pytest.mark.parametrize("seed", range(5))
    def test_irregular_nice(self, seed):
        g = random_nice_graph(80, 4, seed=seed)
        _check(g, [set(range(1, 5)) for _ in range(g.n)])


class TestBruteForceAgreement:
    def _feasible_bruteforce(self, g, lists):
        return any(
            all(combo[u] != combo[v] for u, v in g.edges())
            for combo in itertools.product(*[sorted(lists[v]) for v in range(g.n)])
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_gallai_instances(self, seed):
        rng = random.Random(seed)
        g = random_gallai_tree(3, seed=seed, max_clique=4, max_cycle=5)
        if g.n > 10:
            pytest.skip("instance too large for brute force")
        lists = [
            set(rng.sample(range(1, max(8, g.degree(v) + 2)), max(1, g.degree(v))))
            for v in range(g.n)
        ]
        expected = self._feasible_bruteforce(g, lists)
        try:
            _check(g, [set(s) for s in lists])
            got = True
        except InfeasibleListColoringError:
            got = False
        assert got == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_non_gallai_always_colorable(self, seed):
        rng = random.Random(seed + 1000)
        g_nx = nx.gnp_random_graph(rng.randrange(5, 11), 0.45, seed=seed)
        if not nx.is_connected(g_nx):
            pytest.skip("disconnected sample")
        g = Graph(g_nx.number_of_nodes(), list(g_nx.edges()))
        if is_gallai_tree(g):
            pytest.skip("gallai sample")
        lists = [
            set(rng.sample(range(1, 2 * max(1, g.degree(v)) + 1), max(1, g.degree(v))))
            for v in range(g.n)
        ]
        _check(g, lists)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_tight_lists_on_regular(self, seed):
        g = random_regular_graph(40, 3, seed=seed)
        _check(g, [set(range(1, 4)) for _ in range(40)])


class TestBacktracking:
    def test_solves_triangle_with_rotating_lists(self):
        g = complete_graph(3)
        colors = [0, 0, 0]
        result = backtracking_list_color(g, [{1, 2}, {2, 3}, {1, 3}], colors, [0, 1, 2])
        assert result is not None
        for u, v in g.edges():
            assert colors[u] != colors[v]

    def test_returns_none_when_infeasible(self):
        g = complete_graph(3)
        colors = [0, 0, 0]
        assert backtracking_list_color(g, [{1, 2}, {1, 2}, {1, 2}], colors, [0, 1, 2]) is None

    def test_respects_precolored_neighbors(self):
        g = Graph(3, [(0, 1), (1, 2)])
        colors = [1, 0, 0]
        result = backtracking_list_color(g, [{1}, {1, 2}, {2, 3}], colors, [1, 2])
        assert result is not None
        assert colors[1] == 2 and colors[2] == 3
