"""Tests for the happiness layers (phase 5)."""

import random

import pytest

from repro.core.happiness import build_happiness_layers
from repro.core.marking import default_selection_probability, marking_process
from repro.graphs.bfs import bfs_distances
from repro.graphs.generators import high_girth_regular_graph, random_graph_with_max_degree
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger


def _setup(graph, delta, seed=0, p=None, backoff=6):
    h_nodes = set(range(graph.n))
    colors = [UNCOLORED] * graph.n
    if p is None:
        p = default_selection_probability(delta, backoff)
    marking = marking_process(
        graph, h_nodes, colors, p, backoff, random.Random(seed), RoundLedger()
    )
    return h_nodes, colors, marking


class TestLayerStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_layers_partition_and_adjacency(self, seed):
        g = high_girth_regular_graph(800, 3, girth=8, seed=seed)
        h_nodes, colors, marking = _setup(g, 3, seed=seed)
        result = build_happiness_layers(g, colors, h_nodes, marking, 3, r=8, ledger=RoundLedger())
        seen = set()
        for i, layer in enumerate(result.layers):
            for v in layer:
                assert v not in seen
                seen.add(v)
                assert colors[v] == UNCOLORED
                if i >= 1:
                    previous = set(result.layers[i - 1])
                    assert any(u in previous for u in g.adj[v])
        # leftover is disjoint from layers and from marked
        assert not (result.leftover & seen)
        assert not (result.leftover & result.marked)

    def test_seeds_are_t_nodes_or_boundary(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=3)
        h_nodes, colors, marking = _setup(g, 3, seed=3)
        result = build_happiness_layers(g, colors, h_nodes, marking, 3, r=6, ledger=RoundLedger())
        layer0 = set(result.layers[0]) if result.layers else set()
        assert layer0 <= (result.t_nodes | result.boundary)

    def test_depth_bounded_by_2r(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=4)
        h_nodes, colors, marking = _setup(g, 3, seed=4)
        r = 5
        result = build_happiness_layers(g, colors, h_nodes, marking, 3, r=r, ledger=RoundLedger())
        assert len(result.layers) <= 2 * r + 1


class TestBoundaryHandling:
    def test_irregular_graph_boundary_nodes_are_seeds(self):
        g = random_graph_with_max_degree(500, 4, target_avg_degree=3.0, seed=5)
        h_nodes = set(range(g.n))
        colors = [UNCOLORED] * g.n
        marking = marking_process(
            g, h_nodes, colors, 0.01, 6, random.Random(5), RoundLedger()
        )
        result = build_happiness_layers(g, colors, h_nodes, marking, 4, r=6, ledger=RoundLedger())
        # every degree-deficient node is in the boundary seed set
        for v in range(g.n):
            if g.degree(v) < 4:
                assert v in result.boundary

    def test_marks_near_boundary_uncolored(self):
        g = random_graph_with_max_degree(500, 4, target_avg_degree=3.2, seed=6)
        h_nodes = set(range(g.n))
        colors = [UNCOLORED] * g.n
        marking = marking_process(
            g, h_nodes, colors, 0.02, 6, random.Random(6), RoundLedger()
        )
        result = build_happiness_layers(g, colors, h_nodes, marking, 4, r=6, ledger=RoundLedger())
        # irregular graph: boundary is everywhere, so all marks get wiped
        if marking.marked:
            assert result.uncolored_marks == len(marking.marked)
            assert result.marked == set()

    def test_surviving_marks_keep_color(self):
        g = high_girth_regular_graph(800, 3, girth=8, seed=7)
        h_nodes, colors, marking = _setup(g, 3, seed=7)
        result = build_happiness_layers(g, colors, h_nodes, marking, 3, r=6, ledger=RoundLedger())
        for m in result.marked:
            assert colors[m] == 1

    def test_rounds_charged(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=8)
        h_nodes, colors, marking = _setup(g, 3, seed=8)
        ledger = RoundLedger()
        build_happiness_layers(g, colors, h_nodes, marking, 3, r=7, ledger=ledger)
        assert ledger.total_rounds == 3 * 7

    def test_empty_h_costs_nothing_but_its_rounds(self, monkeypatch):
        import repro.core.happiness as happiness_mod
        from repro.core.marking import MarkingOutcome

        def search(*args, **kwargs):
            raise LookupError("searched an empty H")

        monkeypatch.setattr(happiness_mod, "distance_layers", search)
        monkeypatch.setattr(happiness_mod, "bfs_distances", search)
        g = high_girth_regular_graph(600, 3, girth=8, seed=8)
        ledger = RoundLedger()
        result = build_happiness_layers(
            g, [UNCOLORED] * g.n, set(), MarkingOutcome(), 3, r=7, ledger=ledger
        )
        assert (result.layers, result.leftover, result.boundary) == ([], set(), set())
        assert ledger.total_rounds == 3 * 7


class TestCarvedH:
    @pytest.mark.parametrize("seed", range(3))
    def test_boundary_is_the_h_degree_rule(self, seed):
        # H = V minus a BFS ball: nodes next to the ball lose H-degree.
        g = high_girth_regular_graph(800, 3, girth=8, seed=seed)
        dist = bfs_distances(g, [0], max_depth=3)
        h_nodes = {v for v in range(g.n) if dist[v] == -1}
        colors = [UNCOLORED] * g.n
        marking = marking_process(
            g, h_nodes, colors, 0.02, 6, random.Random(seed), RoundLedger()
        )
        result = build_happiness_layers(g, colors, h_nodes, marking, 3, r=6, ledger=RoundLedger())
        assert result.boundary == {
            v for v in h_nodes if sum(u in h_nodes for u in g.adj[v]) < 3
        }
        assert result.boundary == {v for v in range(g.n) if dist[v] == -1 and any(
            dist[u] == 3 for u in g.adj[v]
        )}
        layered = {v for layer in result.layers for v in layer}
        assert layered | result.leftover == h_nodes - result.marked
