"""Tests for the Panconesi–Srinivasan baseline and centralized oracles."""

import pytest

from repro.api import solve
from repro.baselines.greedy import centralized_brooks, centralized_greedy
from repro.errors import NotNiceGraphError
from repro.graphs.generators import (
    complete_graph,
    high_girth_regular_graph,
    hypercube,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.validation import validate_coloring


class TestPSBaseline:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_regular_graphs(self, d):
        g = random_regular_graph(300, d, seed=d)
        result = solve(g, algorithm="ps", seed=d, strict=True)
        validate_coloring(g, result.colors, max_colors=d)

    def test_torus(self):
        g = torus_grid(10, 11)
        result = solve(g, algorithm="ps", seed=1, strict=True)
        validate_coloring(g, result.colors, max_colors=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_irregular(self, seed):
        g = random_nice_graph(250, 4, seed=seed)
        result = solve(g, algorithm="ps", seed=seed, strict=True)
        validate_coloring(g, result.colors, max_colors=4)

    def test_high_girth(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=1)
        result = solve(g, algorithm="ps", seed=1, strict=True)
        validate_coloring(g, result.colors, max_colors=3)

    def test_stats(self):
        g = random_regular_graph(300, 4, seed=9)
        result = solve(g, algorithm="ps", seed=9)
        assert result.stats["num_layers"] >= 1
        assert result.rounds == sum(result.phase_rounds.values())


class TestCentralizedOracles:
    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_brooks_regular(self, d):
        g = random_regular_graph(200, d, seed=d + 10)
        colors = centralized_brooks(g)
        validate_coloring(g, colors, max_colors=d)

    def test_brooks_torus(self):
        g = torus_grid(8, 9)
        validate_coloring(g, centralized_brooks(g), max_colors=4)

    def test_brooks_hypercube(self):
        g = hypercube(5)
        validate_coloring(g, centralized_brooks(g), max_colors=5)

    def test_brooks_rejects_clique(self):
        with pytest.raises(NotNiceGraphError):
            centralized_brooks(complete_graph(5))

    def test_greedy_uses_at_most_delta_plus_one(self):
        g = random_regular_graph(200, 5, seed=2)
        colors = centralized_greedy(g)
        validate_coloring(g, colors, max_colors=6)

    def test_greedy_respects_order(self):
        g = torus_grid(5, 5)
        colors = centralized_greedy(g, order=list(reversed(range(g.n))))
        validate_coloring(g, colors, max_colors=5)
