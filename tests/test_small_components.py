"""Tests for phase (6): coloring small leftover components."""

import random

import pytest

from repro.core.happiness import build_happiness_layers
from repro.core.marking import default_selection_probability, marking_process
from repro.core.small_components import color_small_components
from repro.graphs.generators import high_girth_regular_graph
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger


def _leftover_scenario(n=1200, d=3, girth=8, seed=0, r=3):
    """Build a genuine phase-6 input by running phases 4-5 with a small
    happiness radius so that leftovers exist."""
    g = high_girth_regular_graph(n, d, girth, seed=seed)
    h_nodes = set(range(g.n))
    colors = [UNCOLORED] * g.n
    p = default_selection_probability(d, 6)
    marking = marking_process(g, h_nodes, colors, p, 6, random.Random(seed), RoundLedger())
    happiness = build_happiness_layers(g, colors, h_nodes, marking, d, r=r, ledger=RoundLedger())
    return g, colors, happiness, d


class TestPhaseSix:
    @pytest.mark.parametrize("seed", range(5))
    def test_colors_all_leftovers(self, seed):
        g, colors, happiness, d = _leftover_scenario(seed=seed)
        if not happiness.leftover:
            pytest.skip("no leftover at this seed")
        ledger = RoundLedger()
        report = color_small_components(
            g, colors, happiness.leftover, d, dcc_radius=2,
            ledger=ledger, rng=random.Random(seed), strict=True,
        )
        for v in happiness.leftover:
            assert colors[v] != UNCOLORED
        validate_coloring(g, colors, allow_partial=True, max_colors=d)
        assert sum(report.component_sizes) == len(happiness.leftover)
        # every component's DCC detection charges its radius
        assert ledger.total_rounds >= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_free_nodes_via_outer_layer(self, seed):
        """Leftover components adjacent to the outermost happiness layer
        have free nodes, so the D-layer path (no fallback) should win."""
        g, colors, happiness, d = _leftover_scenario(seed=seed + 20, r=4)
        if not happiness.leftover:
            pytest.skip("no leftover at this seed")
        report = color_small_components(
            g, colors, happiness.leftover, d, dcc_radius=2,
            ledger=RoundLedger(), rng=random.Random(seed), strict=True,
        )
        if happiness.t_nodes:
            # with T-nodes present the leftover borders the C-layers, so
            # free nodes exist and most components avoid the fallback
            assert report.free_node_components >= report.fallbacks or report.fallbacks == 0

    def test_whole_graph_leftover_fallback(self):
        """With no T-nodes and no boundary the entire graph is leftover;
        the fallback must still produce a valid Δ-coloring."""
        g = high_girth_regular_graph(400, 3, girth=8, seed=33)
        colors = [UNCOLORED] * g.n
        report = color_small_components(
            g, colors, set(range(g.n)), 3, dcc_radius=2,
            ledger=RoundLedger(), rng=random.Random(1),
        )
        validate_coloring(g, colors, max_colors=3)
        assert report.fallbacks == 1

    def test_empty_leftover(self):
        g = high_girth_regular_graph(300, 3, girth=7, seed=4)
        colors = [UNCOLORED] * g.n
        report = color_small_components(
            g, colors, set(), 3, dcc_radius=2, ledger=RoundLedger(), rng=random.Random(0)
        )
        assert report.component_sizes == []

    def test_respects_marked_boundary(self):
        """Leftover coloring must not conflict with marked (color 1)
        neighbours."""
        g, colors, happiness, d = _leftover_scenario(seed=40, r=3)
        if not happiness.leftover:
            pytest.skip("no leftover at this seed")
        marked_before = {v for v in range(g.n) if colors[v] == 1}
        color_small_components(
            g, colors, happiness.leftover, d, dcc_radius=2,
            ledger=RoundLedger(), rng=random.Random(2),
        )
        for v in marked_before:
            assert colors[v] == 1  # untouched
        validate_coloring(g, colors, allow_partial=True, max_colors=d)
