"""Tests for Linial's O(Δ²) coloring."""

import pytest

from repro.graphs.generators import (
    hypercube,
    random_regular_graph,
    torus_grid,
)
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring, reduction_schedule
from repro.primitives.numbers import ilog_star, int_to_digits, is_prime, next_prime


class TestNumberHelpers:
    def test_is_prime_small(self):
        assert [x for x in range(2, 30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_edge(self):
        assert not is_prime(0) and not is_prime(1) and not is_prime(-7)

    def test_next_prime(self):
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(1) == 2

    def test_digits_roundtrip(self):
        digits = int_to_digits(123, 7, 4)
        assert sum(d * 7**i for i, d in enumerate(digits)) == 123

    def test_digits_overflow(self):
        with pytest.raises(ValueError):
            int_to_digits(50, 7, 2)

    def test_ilog_star(self):
        assert ilog_star(1) == 0
        assert ilog_star(2) == 1
        assert ilog_star(16) == 3
        assert ilog_star(65536) == 4


class TestLinialColoring:
    @pytest.mark.parametrize("n,d,seed", [(300, 3, 1), (300, 4, 2), (200, 6, 3), (150, 8, 4)])
    def test_proper_and_small_palette(self, n, d, seed):
        g = random_regular_graph(n, d, seed=seed)
        ledger = RoundLedger()
        result = linial_coloring(g, ledger)
        for u, v in g.edges():
            assert result.colors[u] != result.colors[v]
        assert all(0 <= c < result.palette for c in result.colors)
        # palette should be O(Δ²): generous constant for the prime gaps
        assert result.palette <= max((3 * d + 4) ** 2, n and 0 or 0, 25)
        assert ledger.total_rounds == result.iterations

    def test_torus(self):
        g = torus_grid(10, 10)
        result = linial_coloring(g)
        for u, v in g.edges():
            assert result.colors[u] != result.colors[v]

    def test_hypercube(self):
        g = hypercube(5)
        result = linial_coloring(g)
        for u, v in g.edges():
            assert result.colors[u] != result.colors[v]

    def test_iterations_grow_very_slowly(self):
        """The O(log* n) behaviour: iteration counts are tiny and nearly
        flat across three orders of magnitude of n."""
        small = len(reduction_schedule(10**2, 4))
        large = len(reduction_schedule(10**6, 4))
        huge = len(reduction_schedule(10**12, 4))
        assert small <= large <= huge
        assert huge <= small + 3
        assert huge <= 6

    def test_schedule_monotone_palettes(self):
        schedule = reduction_schedule(10**6, 5)
        palettes = [k for k, _d, _q in schedule]
        assert palettes == sorted(palettes, reverse=True)

    def test_zero_iterations_when_already_small(self):
        g = random_regular_graph(20, 5, seed=1)
        result = linial_coloring(g)
        # n=20 is already below the fixed point for Δ=5; identity works
        assert result.iterations == 0
        assert result.colors.tolist() == list(range(20))
