"""End-to-end tests for the deterministic Δ-coloring (Theorem 4).

Rejection of graphs that are not nice is covered for every engine by
``tests/test_oracles.py``.
"""

import pytest

from repro.api import solve
from repro.core.deterministic import ruling_distance
from repro.graphs.generators import (
    high_girth_regular_graph,
    hypercube,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.validation import validate_coloring


class TestEndToEnd:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_regular_graphs(self, d):
        g = random_regular_graph(300, d, seed=d + 1)
        result = solve(g, algorithm="deterministic", strict=True)
        validate_coloring(g, result.colors, max_colors=d)

    def test_torus(self):
        g = torus_grid(11, 12)
        result = solve(g, algorithm="deterministic", strict=True)
        validate_coloring(g, result.colors, max_colors=4)

    def test_hypercube(self):
        g = hypercube(5)
        result = solve(g, algorithm="deterministic", strict=True)
        validate_coloring(g, result.colors, max_colors=5)

    @pytest.mark.parametrize("seed", range(4))
    def test_irregular(self, seed):
        g = random_nice_graph(250, 4, seed=seed)
        result = solve(g, algorithm="deterministic", strict=True)
        validate_coloring(g, result.colors, max_colors=4)

    def test_high_girth(self):
        g = high_girth_regular_graph(700, 3, girth=8, seed=2)
        result = solve(g, algorithm="deterministic", strict=True)
        validate_coloring(g, result.colors, max_colors=3)


class TestDeterminism:
    def test_fully_reproducible(self):
        g = random_regular_graph(300, 4, seed=3)
        a = solve(g, algorithm="deterministic")
        b = solve(g, algorithm="deterministic")
        assert a.colors == b.colors
        assert a.rounds == b.rounds


class TestStructure:
    def test_ruling_distance_formula(self):
        # R = 4·ceil(log_{Δ-1} n) + 1
        assert ruling_distance(1000, 4) == 4 * 7 + 1
        assert ruling_distance(2, 4) == 5

    def test_layers_cover_graph(self):
        g = random_regular_graph(400, 4, seed=5)
        result = solve(g, algorithm="deterministic", strict=True)
        assert result.stats["num_layers"] >= 1
        assert result.stats["b0_size"] >= 1

    def test_custom_ruling_k(self):
        g = random_regular_graph(300, 4, seed=6)
        result = solve(g, algorithm="deterministic", ruling_k=6, strict=True)
        validate_coloring(g, result.colors, max_colors=4)
        assert result.stats["ruling_distance"] == 6

    def test_fix_stats_reported(self):
        g = random_regular_graph(300, 4, seed=7)
        result = solve(g, algorithm="deterministic")
        assert "fix_modes" in result.stats
        assert sum(result.stats["fix_modes"].values()) == result.stats["b0_size"]

    def test_phase_rounds_sum(self):
        g = random_regular_graph(200, 5, seed=8)
        result = solve(g, algorithm="deterministic")
        assert result.rounds == sum(result.phase_rounds.values())
