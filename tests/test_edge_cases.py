"""Torture tests: minimal and adversarial structures.

Theta graphs are the *minimal* degree-choosable components (two nodes
joined by three internally disjoint paths — 2-connected, neither a clique
nor an odd cycle), so they exercise every DCC code path with the least
possible slack.  The other cases are the smallest nice graphs and shapes
that historically break coloring code (bulls, books, barbells).
"""

import pytest

from repro import (
    UNCOLORED,
    degree_list_color,
    fix_uncolored_node,
    solve,
    validate_coloring,
)
from repro.core.dcc import detect_dccs
from repro.errors import InfeasibleListColoringError
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    is_degree_choosable_component,
    is_gallai_tree,
    is_nice,
)


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hub nodes joined by three disjoint paths of a/b/c inner nodes."""
    edges = []
    n = 2
    for length in (a, b, c):
        previous = 0
        for _ in range(length):
            edges.append((previous, n))
            previous = n
            n += 1
        edges.append((previous, 1))
    return Graph(n, edges)


class TestThetaGraphs:
    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 2, 3), (2, 2, 2), (0, 1, 1), (3, 3, 5)])
    def test_theta_is_dcc(self, a, b, c):
        g = theta_graph(a, b, c)
        assert is_degree_choosable_component(g, range(g.n))
        assert not is_gallai_tree(g)

    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 3, 5)])
    def test_theta_tight_degree_lists(self, a, b, c):
        g = theta_graph(a, b, c)
        lists = [set(range(1, g.degree(v) + 1)) for v in range(g.n)]
        colors = degree_list_color(g, lists)
        validate_coloring(g, colors, max_colors=3)

    def test_theta_detected_as_dcc(self):
        g = theta_graph(1, 1, 1)  # K4 minus perfect matching? no: K_{2,3}
        detection = detect_dccs(g, radius=2)
        assert len(detection.dccs) >= 1
        assert detection.nodes_in_dccs == set(range(g.n))

    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (1, 2, 3), (2, 2, 2)])
    def test_theta_delta_coloring(self, a, b, c):
        g = theta_graph(a, b, c)
        if not is_nice(g):
            pytest.skip("degenerate theta")
        result = solve(g, algorithm="randomized", seed=a + b + c)
        validate_coloring(g, result.colors, max_colors=g.max_degree())


class TestSmallestNiceGraphs:
    def test_bull_graph(self):
        # triangle with two horns: Δ = 3, nice
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        assert is_nice(g)
        result = solve(g, algorithm="randomized", seed=1)
        validate_coloring(g, result.colors, max_colors=3)

    def test_paw_graph(self):
        # triangle plus one pendant: the smallest nice graph
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert is_nice(g)
        result = solve(g, algorithm="randomized", seed=1)
        validate_coloring(g, result.colors, max_colors=3)

    def test_book_graph(self):
        # triangles sharing one edge: B_3
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        assert is_nice(g)
        result = solve(g, algorithm="randomized", seed=2)
        validate_coloring(g, result.colors, max_colors=g.max_degree())

    def test_barbell(self):
        # two K4s joined by a path: cut structure + dense blocks
        k4a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        k4b = [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
        g = Graph(10, k4a + k4b + [(0, 8), (8, 9), (9, 4)])
        assert is_nice(g)
        result = solve(g, algorithm="randomized", seed=3)
        validate_coloring(g, result.colors, max_colors=g.max_degree())
        det = solve(g, algorithm="deterministic")
        validate_coloring(g, det.colors, max_colors=g.max_degree())

    def test_two_triangles_sharing_vertex_is_gallai_but_irregular(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        assert is_gallai_tree(g)
        assert is_nice(g)  # nice yet Gallai: colorable via deficient nodes
        result = solve(g, algorithm="randomized", seed=4)
        validate_coloring(g, result.colors, max_colors=4)


class TestDegreeListEdgeCases:
    def test_k4_minus_perfect_matching_is_cycle(self):
        # K4 minus a perfect matching = C4: even cycle, tight lists work
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        colors = degree_list_color(g, [{1, 2}] * 4)
        validate_coloring(g, colors, max_colors=2)

    def test_precolored_surroundings(self):
        # a DCC whose outside neighbours already consumed specific colors
        g = theta_graph(1, 2, 2)
        lists = []
        for v in range(g.n):
            base = set(range(1, g.degree(v) + 2))
            lists.append(base - {1} if v % 2 == 0 else base)
        colors = degree_list_color(g, lists)
        for v in range(g.n):
            assert colors[v] in lists[v]

    def test_infeasible_bowtie_tight(self):
        # two triangles sharing the center; the outer pairs force {1,2}
        # and {3,4} respectively, covering the center's whole tight list
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        lists = [{1, 2, 3, 4}, {1, 2}, {1, 2}, {3, 4}, {3, 4}]
        with pytest.raises(InfeasibleListColoringError):
            degree_list_color(g, lists)

    def test_feasible_bowtie_center_escape(self):
        # same shape, but both triangles fight over {1,2}: the center
        # escapes to 3 or 4 (this is why Gallai-tight can still work)
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        lists = [{1, 2, 3, 4}, {1, 2}, {1, 2}, {1, 2}, {1, 2}]
        colors = degree_list_color(g, lists)
        assert colors[0] in {3, 4}


class TestRepairEdgeCases:
    def test_repair_in_tiny_nice_graph(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])  # paw
        colors = [0, 1, 2, 0]
        colors[0] = UNCOLORED
        colors[3] = 1
        result = fix_uncolored_node(g, colors, 0, 3)
        validate_coloring(g, colors, max_colors=3)
        assert result.mode in ("free", "deficient", "dcc", "regional", "duplicate",
                               "uncolored-slack", "shift-early-free")

    def test_repair_with_rainbow_in_theta(self):
        # K_{2,3}: both hubs uncolored, inner nodes rainbow — hub 0 sees
        # all three colors and must exploit the uncolored hub 1
        g = theta_graph(1, 1, 1)
        colors = [UNCOLORED, UNCOLORED, 1, 2, 3]
        result = fix_uncolored_node(g, colors, 0, 3)
        validate_coloring(g, colors, allow_partial=True, max_colors=3)
        assert colors[0] != UNCOLORED
        fix_uncolored_node(g, colors, 1, 3)
        validate_coloring(g, colors, max_colors=3)
        assert result.mode in (
            "dcc", "regional", "duplicate", "free", "uncolored-slack",
            "shift-early-free", "deficient",
        )
