"""Cross-algorithm integration tests: all four Δ-colorers on shared
instances, plus the public API surface."""

import pytest

import repro
from repro import solve, validate_coloring
from repro.analysis.stats import loglog_slope, mean
from repro.errors import NotNiceGraphError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    high_girth_regular_graph,
    path_graph,
    random_regular_graph,
    torus_grid,
)


ALGORITHMS = [
    ("small-delta", lambda g, s: solve(g, algorithm="randomized-small", seed=s)),
    ("deterministic", lambda g, s: solve(g, algorithm="deterministic")),
    ("ps-baseline", lambda g, s: solve(g, algorithm="ps", seed=s)),
]
LARGE_DELTA = ("large-delta", lambda g, s: solve(g, algorithm="randomized-large", seed=s))


class TestAllAlgorithmsAgreeOnValidity:
    @pytest.mark.parametrize("name,algorithm", ALGORITHMS)
    def test_cubic(self, name, algorithm):
        g = random_regular_graph(300, 3, seed=42)
        result = algorithm(g, 42)
        validate_coloring(g, result.colors, max_colors=3)

    @pytest.mark.parametrize("name,algorithm", ALGORITHMS)
    def test_high_girth(self, name, algorithm):
        g = high_girth_regular_graph(500, 3, girth=8, seed=6)
        result = algorithm(g, 6)
        validate_coloring(g, result.colors, max_colors=3)

    @pytest.mark.parametrize("name,algorithm", ALGORITHMS + [LARGE_DELTA])
    def test_four_regular(self, name, algorithm):
        g = random_regular_graph(300, 4, seed=43)
        result = algorithm(g, 43)
        validate_coloring(g, result.colors, max_colors=4)

    @pytest.mark.parametrize("name,algorithm", ALGORITHMS + [LARGE_DELTA])
    def test_torus(self, name, algorithm):
        g = torus_grid(9, 10)
        result = algorithm(g, 7)
        validate_coloring(g, result.colors, max_colors=4)


class TestDispatcher:
    def test_small_delta_dispatch(self):
        g = random_regular_graph(200, 3, seed=1)
        result = solve(g, algorithm="randomized", seed=1)
        validate_coloring(g, result.colors, max_colors=3)

    def test_large_delta_dispatch(self):
        g = random_regular_graph(200, 5, seed=2)
        result = solve(g, algorithm="randomized", seed=2)
        validate_coloring(g, result.colors, max_colors=5)

    @pytest.mark.parametrize(
        "bad", [complete_graph(5), cycle_graph(8), path_graph(5)]
    )
    def test_rejects_non_nice(self, bad):
        with pytest.raises(NotNiceGraphError):
            solve(bad, algorithm="randomized")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_legacy_entry_points_are_gone(self):
        """solve() is the only way to run an engine."""
        import repro.baselines
        import repro.core

        removed = (
            "delta_color", "delta_coloring_small_delta", "delta_coloring_large_delta",
            "delta_coloring_randomized", "delta_coloring_deterministic",
            "ps_delta_coloring", "color_graph", "DeltaColoringResult",
            "DeterministicResult", "PSResult", "ComponentColoring",
        )
        for package in (repro, repro.core, repro.baselines):
            for name in removed:
                assert not hasattr(package, name), (package.__name__, name)

    def test_result_contract(self):
        g = random_regular_graph(150, 4, seed=3)
        result = solve(g, algorithm="randomized", seed=3)
        assert result.rounds == sum(result.phase_rounds.values())
        assert result.delta == 4
        assert len(result.colors) == g.n


class TestRoundScalingSanity:
    """Coarse shape checks backing the benchmark claims: the new
    algorithms' rounds grow far slower in n than the PS baseline's."""

    def test_new_beats_baseline_on_large_instances(self):
        g = random_regular_graph(3000, 4, seed=11)
        new = solve(g, algorithm="randomized-large", seed=11).rounds
        old = solve(g, algorithm="ps", seed=11).rounds
        assert new < old

    def test_baseline_grows_faster(self):
        sizes = [500, 2000, 8000]
        new_rounds, old_rounds = [], []
        for n in sizes:
            g = random_regular_graph(n, 4, seed=n)
            new_rounds.append(solve(g, algorithm="randomized-large", seed=n).rounds)
            old_rounds.append(solve(g, algorithm="ps", seed=n).rounds)
        assert loglog_slope(sizes, old_rounds) > loglog_slope(sizes, new_rounds) - 0.05

    def test_stats_helpers(self):
        assert mean([1, 2, 3]) == 2.0
        assert loglog_slope([10, 100, 1000], [10, 100, 1000]) == pytest.approx(1.0)
