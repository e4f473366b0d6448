"""Tests for the non-nice special cases and whole-graph dispatch."""

import pytest

from repro.api import solve
from repro.core import special_cases
from repro.core.special_cases import color_special
from repro.errors import ColoringError, NotNiceGraphError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_coloring


class TestSpecialFamilies:
    @pytest.mark.parametrize("n", [4, 6, 10, 20])
    def test_even_cycles_two_colors(self, n):
        g = cycle_graph(n)
        result = color_special(g)
        validate_coloring(g, result.colors, max_colors=2)
        assert result.family == "even-cycle"
        assert result.num_colors == 2

    @pytest.mark.parametrize("n", [5, 9, 21])
    def test_odd_cycles_three_colors(self, n):
        g = cycle_graph(n)
        result = color_special(g)
        validate_coloring(g, result.colors, max_colors=3)
        assert result.family == "odd-cycle"
        assert result.num_colors == 3
        # exactly one node wears the third color
        assert sum(1 for c in result.colors if c == 3) == 1

    def test_triangle_classified_as_clique(self):
        # C3 = K3: the clique branch wins and 3 colors are used
        result = color_special(cycle_graph(3))
        assert result.family == "clique"
        assert result.num_colors == 3

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_paths_two_colors(self, n):
        g = path_graph(n)
        result = color_special(g)
        validate_coloring(g, result.colors, max_colors=2)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_cliques_k_colors(self, k):
        g = complete_graph(k)
        result = color_special(g)
        validate_coloring(g, result.colors, max_colors=k)
        assert result.num_colors == k

    def test_rejects_nice_graph(self):
        with pytest.raises(NotNiceGraphError):
            color_special(torus_grid(5, 5))

    def test_linear_round_cost(self):
        # paths/cycles honestly cost Θ(n) LOCAL rounds
        assert color_special(cycle_graph(30)).rounds == 30
        assert color_special(path_graph(17)).rounds == 17
        assert color_special(complete_graph(9)).rounds == 1


class TestColorGraphDispatch:
    """``solve(algorithm="components")``: per-component dispatch."""

    def test_mixed_components(self):
        g = disjoint_union([
            cycle_graph(9),
            complete_graph(4),
            random_regular_graph(80, 3, seed=1),
            path_graph(5),
            Graph(1),
        ])
        result = solve(g, algorithm="components", seed=2)
        validate_coloring(g, list(result.colors), max_colors=result.palette)
        assert result.stats["component_families"] == {
            "odd-cycle": 1, "clique": 1, "nice": 1, "path": 1, "isolated": 1,
        }
        # palette = max over components: K4 needs 4, odd cycle 3, cubic 3
        assert result.palette == 4

    def test_single_nice_component(self):
        g = random_regular_graph(100, 4, seed=3)
        result = solve(g, algorithm="components", seed=3)
        validate_coloring(g, list(result.colors), max_colors=4)
        assert result.stats["component_families"] == {"nice": 1}

    def test_all_isolated(self):
        g = Graph(5)
        result = solve(g, algorithm="components")
        assert result.palette == 1
        assert set(result.colors) == {1}

    def test_failure_injection(self):
        """Crash a random 10% of a colored network; the survivor graph is
        recolored per component regardless of what the failures left."""
        import random

        g = random_regular_graph(400, 4, seed=5)
        rng = random.Random(5)
        dead = set(rng.sample(range(g.n), 40))
        survivors = [v for v in range(g.n) if v not in dead]
        sub, _originals = g.subgraph(survivors)
        result = solve(sub, algorithm="components", seed=5)
        validate_coloring(sub, list(result.colors), max_colors=result.palette)
        # degree cap survives node removal
        assert result.palette <= 5

    def test_rounds_are_max_over_components(self):
        g = disjoint_union([cycle_graph(40), complete_graph(4)])
        result = solve(g, algorithm="components")
        assert result.rounds == 40  # the cycle dominates

    def test_component_held_to_its_own_palette(self, monkeypatch):
        """An odd cycle colored properly but with a 4th color passes the
        whole-graph check (K4 makes the palette 4), so only the
        per-component bound can catch it."""
        real = special_cases._color_excluded

        def one_color_too_many(graph):
            special = real(graph)
            if special.family == "odd-cycle":
                special.colors = [4 if c == 3 else c for c in special.colors]
            return special

        monkeypatch.setattr(special_cases, "_color_excluded", one_color_too_many)
        g = disjoint_union([cycle_graph(9), complete_graph(4)])
        with pytest.raises(ColoringError, match="odd-cycle component"):
            solve(g, algorithm="components")
