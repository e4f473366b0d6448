"""Tests for ruling set constructions (Lemma 20 substitutes)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_regular_graph, torus_grid
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring
from repro.primitives.ruling_sets import (
    ruling_forest_aglp,
    ruling_set_from_coloring,
    ruling_set_random,
    verify_ruling_set,
)


class TestAGLP:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_guarantees(self, k):
        g = random_regular_graph(400, 3, seed=1)
        ledger = RoundLedger()
        result = ruling_forest_aglp(g, k, ledger)
        ok, reason = verify_ruling_set(g, result.nodes, alpha=k, beta=result.beta)
        assert ok, reason
        assert ledger.total_rounds == result.beta

    def test_member_subset(self):
        g = torus_grid(10, 10)
        members = set(range(0, g.n, 2))
        result = ruling_forest_aglp(g, 3, members=members)
        ok, reason = verify_ruling_set(g, result.nodes, 3, result.beta, members=members)
        assert ok, reason

    def test_empty_members(self):
        g = torus_grid(5, 5)
        result = ruling_forest_aglp(g, 3, members=set())
        assert result.nodes == set()

    def test_single_member(self):
        g = torus_grid(5, 5)
        result = ruling_forest_aglp(g, 4, members={7})
        assert result.nodes == {7}

    def test_deterministic(self):
        g = random_regular_graph(300, 4, seed=2)
        a = ruling_forest_aglp(g, 4).nodes
        b = ruling_forest_aglp(g, 4).nodes
        assert a == b

    @given(k=st.integers(min_value=2, max_value=6), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs(self, k, seed):
        g = random_regular_graph(120, 3, seed=seed)
        result = ruling_forest_aglp(g, k)
        ok, reason = verify_ruling_set(g, result.nodes, alpha=k, beta=result.beta)
        assert ok, reason


class TestRandomRulingSets:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_luby_guarantees(self, k):
        g = random_regular_graph(300, 4, seed=4)
        result = ruling_set_random(g, k, rng=random.Random(1))
        ok, reason = verify_ruling_set(g, result.nodes, alpha=k + 1, beta=k)
        assert ok, reason

    def test_ghaffari_with_cap_and_finisher(self):
        g = random_regular_graph(300, 4, seed=5)
        result = ruling_set_random(
            g, 2, rng=random.Random(2), method="ghaffari", max_iterations=6
        )
        ok, reason = verify_ruling_set(g, result.nodes, alpha=3, beta=2)
        assert ok, reason

    def test_member_subset(self):
        g = random_regular_graph(300, 3, seed=6)
        members = set(range(150))
        result = ruling_set_random(g, 2, rng=random.Random(3), members=members)
        ok, reason = verify_ruling_set(g, result.nodes, 3, 2, members=members)
        assert ok, reason


class TestColoringBased:
    def test_guarantees(self):
        g = random_regular_graph(200, 4, seed=7)
        linial = linial_coloring(g)
        ledger = RoundLedger()
        result = ruling_set_from_coloring(g, linial.colors, linial.palette, ledger)
        ok, reason = verify_ruling_set(g, result.nodes, alpha=2, beta=1)
        assert ok, reason
        assert ledger.total_rounds == linial.palette


class TestVerifier:
    def test_detects_independence_violation(self):
        g = torus_grid(5, 5)
        ok, reason = verify_ruling_set(g, {0, 1}, alpha=2, beta=5)
        assert not ok and "distance" in reason

    def test_detects_domination_violation(self):
        g = torus_grid(9, 9)
        ok, reason = verify_ruling_set(g, {0}, alpha=2, beta=1)
        assert not ok and "beta" in reason

    def test_detects_non_member(self):
        g = torus_grid(5, 5)
        ok, reason = verify_ruling_set(g, {0}, alpha=2, beta=25, members={1, 2})
        assert not ok and "non-members" in reason

    def test_empty_cases(self):
        g = torus_grid(5, 5)
        ok, _ = verify_ruling_set(g, set(), alpha=2, beta=2, members=set())
        assert ok
        ok, _ = verify_ruling_set(g, set(), alpha=2, beta=2, members={1})
        assert not ok
