"""End-to-end tests for the randomized Δ-coloring algorithms (Thms 1, 3).

Rejection of graphs that are not nice is covered for every engine by
``tests/test_oracles.py``.
"""

import pytest

from repro.api import solve
from repro.core.randomized import RandomizedParams
from repro.errors import AlgorithmContractError
from repro.graphs.generators import (
    high_girth_regular_graph,
    hypercube,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.validation import validate_coloring


class TestSmallDelta:
    @pytest.mark.parametrize("seed", range(5))
    def test_cubic_graphs(self, seed):
        g = random_regular_graph(400, 3, seed=seed)
        result = solve(g, algorithm="randomized-small", seed=seed, strict=True)
        validate_coloring(g, result.colors, max_colors=3)
        assert result.delta == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_high_girth_cubic_exercises_shattering(self, seed):
        g = high_girth_regular_graph(1200, 3, girth=9, seed=seed)
        result = solve(g, algorithm="randomized-small", seed=seed, strict=True)
        validate_coloring(g, result.colors, max_colors=3)
        assert result.stats["num_dccs"] == 0
        assert result.stats["h_size"] == g.n


class TestLargeDelta:
    @pytest.mark.parametrize("d", [4, 5, 6, 8])
    def test_regular_graphs(self, d):
        g = random_regular_graph(300, d, seed=d)
        result = solve(g, algorithm="randomized-large", seed=d, strict=True)
        validate_coloring(g, result.colors, max_colors=d)

    def test_torus(self):
        g = torus_grid(14, 15)
        result = solve(g, algorithm="randomized-large", seed=1, strict=True)
        validate_coloring(g, result.colors, max_colors=4)
        # the torus is DCC-everywhere: all nodes fall in B-layers
        assert result.stats["h_size"] == 0

    def test_hypercube(self):
        g = hypercube(6)
        result = solve(g, algorithm="randomized-large", seed=2, strict=True)
        validate_coloring(g, result.colors, max_colors=6)

    @pytest.mark.parametrize("seed", range(4))
    def test_irregular(self, seed):
        g = random_nice_graph(300, 5, seed=seed)
        result = solve(g, algorithm="randomized-large", seed=seed, strict=True)
        validate_coloring(g, result.colors, max_colors=5)

    def test_rejects_delta_three(self):
        g = random_regular_graph(60, 3, seed=1)
        with pytest.raises(AlgorithmContractError, match=">= 4"):
            solve(g, algorithm="randomized-large")


class TestParamsAndStats:
    def test_custom_params_leftover_path(self):
        g = high_girth_regular_graph(1000, 3, girth=9, seed=5)
        params = RandomizedParams(
            dcc_radius=2, backoff=6, happiness_radius=3, engine="hybrid",
            seed=5, strict=True,
        )
        result = solve(g, algorithm="randomized", params=params)
        validate_coloring(g, result.colors, max_colors=3)
        # tiny happiness radius must push nodes into phase 6
        assert result.stats["leftover_nodes"] > 0
        assert result.stats["leftover_components"] >= 1

    def test_phase_breakdown_present(self):
        g = random_regular_graph(200, 4, seed=3)
        result = solve(g, algorithm="randomized-large", seed=3)
        assert result.rounds == sum(result.phase_rounds.values())
        assert any(key.startswith("0:linial") for key in result.phase_rounds)

    def test_presets(self):
        small = RandomizedParams.small_delta(10**5, 3)
        large = RandomizedParams.large_delta(10**5, 16)
        assert small.engine == "deterministic"
        assert large.engine == "hybrid"
        assert small.dcc_radius >= large.dcc_radius

    def test_deterministic_engine_variant(self):
        g = random_regular_graph(300, 4, seed=9)
        params = RandomizedParams(engine="deterministic", seed=9, strict=True)
        result = solve(g, algorithm="randomized", params=params)
        validate_coloring(g, result.colors, max_colors=4)

    def test_random_engine_variant(self):
        g = random_regular_graph(300, 4, seed=10)
        params = RandomizedParams(engine="random", seed=10, strict=True)
        result = solve(g, algorithm="randomized", params=params)
        validate_coloring(g, result.colors, max_colors=4)

    def test_reproducible_given_seed(self):
        g = random_regular_graph(300, 4, seed=11)
        a = solve(g, algorithm="randomized-large", seed=11)
        b = solve(g, algorithm="randomized-large", seed=11)
        assert a.colors == b.colors
        assert a.rounds == b.rounds


class TestStress:
    @pytest.mark.parametrize("seed", range(10))
    def test_many_seeds_mixed_families(self, seed):
        if seed % 3 == 0:
            g = random_regular_graph(240, 4 + seed % 3, seed=seed)
            delta = g.max_degree()
        elif seed % 3 == 1:
            g = random_nice_graph(220, 4, seed=seed)
            delta = 4
        else:
            g = torus_grid(8 + seed % 4, 9)
            delta = 4
        result = solve(
            g, algorithm="randomized", params=RandomizedParams(seed=seed, strict=True)
        )
        validate_coloring(g, result.colors, max_colors=delta)
