"""Tests for ruling set constructions (Lemma 20 substitutes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import path_graph, random_regular_graph, torus_grid
from repro.local.rounds import RoundLedger
from repro.primitives.ruling_sets import ruling_forest_aglp, verify_ruling_set


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

    @pytest.mark.parametrize("members", [{7}, {-1, 3}, {0, 5}])
    def test_member_outside_graph_raises_before_charging(self, members):
        """A member outside 0..n-1 is refused: ``{7}`` once came back as
        the ruling set and ``{-1, 3}`` as ``{-1}``."""
        g = path_graph(5)
        ledger = RoundLedger()
        with pytest.raises(IndexError):
            ruling_forest_aglp(g, 2, ledger, members=members)
        assert ledger.total_rounds == 0

    @given(k=st.integers(min_value=2, max_value=6), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs(self, k, seed):
        g = random_regular_graph(120, 3, seed=seed)
        result = ruling_forest_aglp(g, k)
        ok, reason = verify_ruling_set(g, result.nodes, alpha=k, beta=result.beta)
        assert ok, reason


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

    @pytest.mark.parametrize("members", [{-1, 4}, {4, 5}])
    def test_member_outside_graph_raises(self, members):
        """``dist[-1]`` once aliased node 4, so ``{4}`` was reported as
        ruling ``{-1, 4}`` on a 5-node path."""
        with pytest.raises(IndexError):
            verify_ruling_set(path_graph(5), {4}, 2, 1, members=members)

    def test_empty_cases(self):
        g = torus_grid(5, 5)
        ok, _ = verify_ruling_set(g, set(), alpha=2, beta=2, members=set())
        assert ok
        ok, _ = verify_ruling_set(g, set(), alpha=2, beta=2, members={1})
        assert not ok
