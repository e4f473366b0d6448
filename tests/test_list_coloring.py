"""Tests for the (deg+1)-list coloring engines (Theorems 18/19 substitutes)."""

import random

import pytest

from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.graphs.bfs import distance_layers
from repro.graphs.generators import random_regular_graph, torus_grid
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring
from repro.primitives.list_coloring import (
    available_colors,
    first_available_color,
    greedy_color_sequential,
    list_coloring_deterministic,
    list_coloring_hybrid,
    list_coloring_random,
)


def _fresh(n=300, d=5, seed=1):
    g = random_regular_graph(n, d, seed=seed)
    return g, [UNCOLORED] * n


class TestAvailableColors:
    def test_full_when_uncolored_neighbors(self):
        g, colors = _fresh(50, 3, seed=2)
        assert available_colors(g, colors, 0, 4) == [1, 2, 3, 4]

    def test_excludes_neighbor_colors(self):
        g = torus_grid(5, 5)
        colors = [UNCOLORED] * g.n
        colors[g.adj[0][0]] = 2
        assert 2 not in available_colors(g, colors, 0, 4)


class TestFirstAvailableColor:
    @pytest.mark.parametrize("seed", range(4))
    def test_first_entry_of_available_colors(self, seed):
        g = random_regular_graph(60, 4, seed=seed)
        rng = random.Random(seed)
        colors = [rng.randrange(0, 6) for _ in range(g.n)]
        for max_colors in (1, 3, 5, 8):
            for v in range(g.n):
                options = available_colors(g, colors, v, max_colors)
                expected = options[0] if options else UNCOLORED
                assert first_available_color(g, colors, v, max_colors) == expected

    def test_empty_list_raises_as_before(self):
        # A torus node whose four neighbours hold colors 1..4: no option left.
        g = torus_grid(5, 5)
        colors = [UNCOLORED] * g.n
        for c, u in enumerate(g.adj[0], start=1):
            colors[u] = c
        assert first_available_color(g, colors, 0, 4) == UNCOLORED
        with pytest.raises(InfeasibleListColoringError, match="greedy finisher"):
            greedy_color_sequential(g, list(colors), [0], 4)
        with pytest.raises(InfeasibleListColoringError, match="caller violated"):
            list_coloring_deterministic(g, list(colors), {0}, 4, [0] * g.n, 1)


class TestRandomEngine:
    @pytest.mark.parametrize("seed", range(5))
    def test_colors_everything_with_delta_plus_one(self, seed):
        g, colors = _fresh(seed=seed)
        stats = list_coloring_random(
            g, colors, set(range(g.n)), 6, RoundLedger(), random.Random(seed), strict=True
        )
        validate_coloring(g, colors, max_colors=6)
        assert stats.leftover_after_trials == 0

    def test_iteration_cap_respected(self):
        g, colors = _fresh(seed=9)
        stats = list_coloring_random(
            g, colors, set(range(g.n)), 6, RoundLedger(), random.Random(1), max_iterations=1
        )
        assert stats.iterations == 1

    def test_strict_detects_bad_instance(self):
        # Delta-regular graph with only Delta colors and no slack anywhere
        g, colors = _fresh(60, 4, seed=3)
        with pytest.raises(AlgorithmContractError, match="deg\\+1"):
            list_coloring_random(
                g, colors, set(range(g.n)), 4, RoundLedger(), random.Random(1), strict=True
            )

    def test_rounds_equal_iterations(self):
        g, colors = _fresh(seed=4)
        ledger = RoundLedger()
        stats = list_coloring_random(
            g, colors, set(range(g.n)), 6, ledger, random.Random(2)
        )
        assert ledger.total_rounds == stats.iterations


class TestHybridEngine:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_finishes(self, seed):
        g, colors = _fresh(seed=seed + 10)
        stats = list_coloring_hybrid(
            g, colors, set(range(g.n)), 6, RoundLedger(), random.Random(seed), strict=True
        )
        validate_coloring(g, colors, max_colors=6)
        assert stats.iterations <= 2 * 3 + 4 + 1  # 2·ceil(log2(Δ+1)) + 4

    def test_tiny_trial_budget_forces_gathering(self):
        g, colors = _fresh(seed=20)
        ledger = RoundLedger()
        stats = list_coloring_hybrid(
            g, colors, set(range(g.n)), 6, ledger, random.Random(3), trial_budget=0
        )
        validate_coloring(g, colors, max_colors=6)
        assert stats.leftover_after_trials == g.n
        assert stats.gather_rounds > 0


class TestDeterministicEngine:
    @pytest.mark.parametrize("seed", range(4))
    def test_colors_everything(self, seed):
        g, colors = _fresh(seed=seed + 30)
        linial = linial_coloring(g)
        ledger = RoundLedger()
        stats = list_coloring_deterministic(
            g, colors, set(range(g.n)), 6, linial.colors, linial.palette, ledger, strict=True
        )
        validate_coloring(g, colors, max_colors=6)
        assert stats.iterations == linial.palette
        assert ledger.total_rounds == linial.palette

    @pytest.mark.parametrize("path", ["default", "python"])
    def test_base_color_outside_palette_raises(self, path, python_twins):
        # Node 7's base class (9) is never swept by a 3-class palette: it
        # used to stay uncolored while the call reported success.
        g = torus_grid(5, 5)
        base = [(v + v // 5) % 3 for v in range(g.n)]
        base[7] = 9
        colors = [UNCOLORED] * g.n

        def call():
            return list_coloring_deterministic(g, colors, set(range(g.n)), 5, base, 3)

        with pytest.raises(AlgorithmContractError, match=r"node 7 has base color 9"):
            call() if path == "default" else python_twins(call)
        assert colors == [UNCOLORED] * g.n

    def test_skips_already_colored(self):
        g, colors = _fresh(seed=40)
        linial = linial_coloring(g)
        colors[0] = 1
        list_coloring_deterministic(
            g, colors, set(range(g.n)), 6, linial.colors, linial.palette
        )
        assert colors[0] == 1


class TestLayeredUsage:
    """The engines as the layering technique uses them: color distance
    layers in reverse, each a (deg+1) instance with Δ colors only."""

    @pytest.mark.parametrize("engine_name", ["random", "hybrid", "deterministic"])
    def test_torus_layers_with_delta_colors(self, engine_name):
        g = torus_grid(9, 9)
        colors = [UNCOLORED] * g.n
        layers = distance_layers(g, [0])
        linial = linial_coloring(g)
        ledger = RoundLedger()
        rng = random.Random(5)
        for layer in reversed(layers[1:]):
            targets = set(layer)
            if engine_name == "random":
                list_coloring_random(g, colors, targets, 4, ledger, rng, strict=True)
            elif engine_name == "hybrid":
                list_coloring_hybrid(g, colors, targets, 4, ledger, rng, strict=True)
            else:
                list_coloring_deterministic(
                    g, colors, targets, 4, linial.colors, linial.palette, ledger, strict=True
                )
        # everything except the base node is colored with Δ=4 colors
        validate_coloring(g, colors, max_colors=4, allow_partial=True)
        assert sum(1 for c in colors if c == UNCOLORED) == 1


class TestGreedySequential:
    def test_any_order_works_for_deg_plus_one(self):
        g, colors = _fresh(200, 4, seed=50)
        greedy_color_sequential(g, colors, list(range(g.n)), 5)
        validate_coloring(g, colors, max_colors=5)

    def test_respects_precolored(self):
        g = torus_grid(5, 5)
        colors = [UNCOLORED] * g.n
        colors[0] = 3
        greedy_color_sequential(g, colors, [v for v in range(g.n) if v != 0], 5)
        assert colors[0] == 3
        validate_coloring(g, colors, max_colors=5)
