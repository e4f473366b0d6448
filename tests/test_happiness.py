"""Tests for the happiness layers (phase 5)."""

import random

import pytest

import repro.core.happiness as happiness_mod
from repro.core.happiness import build_happiness_layers
from repro.core.marking import default_selection_probability, marking_process
from repro.graphs.bfs import bfs_distances, distance_layers, distance_layers_and_rest
from repro.graphs.generators import (
    cycle_graph,
    high_girth_regular_graph,
    random_graph_with_max_degree,
)
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger


def mask_of(graph, h_nodes):
    """H's byte mask, as phase 3 hands it to phase 5."""
    return bytes(v in h_nodes for v in range(graph.n))


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
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=8, ledger=RoundLedger()
        )
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
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=6, ledger=RoundLedger()
        )
        layer0 = set(result.layers[0]) if result.layers else set()
        assert layer0 <= (result.t_nodes | result.boundary)

    def test_depth_bounded_by_2r(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=4)
        h_nodes, colors, marking = _setup(g, 3, seed=4)
        r = 5
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=r, ledger=RoundLedger()
        )
        assert len(result.layers) <= 2 * r + 1


class TestBoundaryHandling:
    def test_irregular_graph_boundary_nodes_are_seeds(self):
        g = random_graph_with_max_degree(500, 4, target_avg_degree=3.0, seed=5)
        h_nodes = set(range(g.n))
        colors = [UNCOLORED] * g.n
        marking = marking_process(
            g, h_nodes, colors, 0.01, 6, random.Random(5), RoundLedger()
        )
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 4, r=6, ledger=RoundLedger()
        )
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
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 4, r=6, ledger=RoundLedger()
        )
        # irregular graph: boundary is everywhere, so all marks get wiped
        if marking.marked:
            assert result.uncolored_marks == len(marking.marked)
            assert result.marked == set()

    def test_surviving_marks_keep_color(self):
        g = high_girth_regular_graph(800, 3, girth=8, seed=7)
        h_nodes, colors, marking = _setup(g, 3, seed=7)
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=6, ledger=RoundLedger()
        )
        for m in result.marked:
            assert colors[m] == 1

    def test_rounds_charged(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=8)
        h_nodes, colors, marking = _setup(g, 3, seed=8)
        ledger = RoundLedger()
        build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=7, ledger=ledger
        )
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
            g, [UNCOLORED] * g.n, set(), bytes(g.n), MarkingOutcome(), 3, r=7, ledger=ledger
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
        result = build_happiness_layers(
            g, colors, h_nodes, mask_of(g, h_nodes), marking, 3, r=6, ledger=RoundLedger()
        )
        assert result.boundary == {
            v for v in h_nodes if sum(u in h_nodes for u in g.adj[v]) < 3
        }
        assert result.boundary == {v for v in range(g.n) if dist[v] == -1 and any(
            dist[u] == 3 for u in g.adj[v]
        )}
        layered = {v for layer in result.layers for v in layer}
        assert layered | result.leftover == h_nodes - result.marked


class TestUncoloredPartOfH:
    """Phase 5 takes H's uncolored part as H minus the marks still
    colored, and H's mask from phase 3, without a pass over H's colors:
    the C-layer search must see the mask and sources the pass over the
    colors gave, and the leftover set (phase 6 reads it in its iteration
    order) must be the one that pass's set minus the layers gave."""

    # (graph, base nodes, carve depth, p, delta, r): a girth-9 cubic graph
    # with a dense H, and a long cycle whose H is sparse in its node range,
    # so set orders there depend on insertion order, not only on the ids.
    CASES = {
        "girth9": (high_girth_regular_graph(1200, 3, girth=9, seed=2), 12, 1, 0.05, 3, 2),
        "sparse": (cycle_graph(40000), 2000, 8, 0.2, 2, 1),
    }

    @classmethod
    def phase5(cls, case):
        graph, count, depth, p, delta, r = cls.CASES[case]
        rng = random.Random(1)
        base = rng.sample(range(graph.n), count)
        _, h_nodes, h_mask = distance_layers_and_rest(graph, base, max_depth=depth)
        colors = [UNCOLORED] * graph.n
        marking = marking_process(graph, h_nodes, colors, p, 5, rng, RoundLedger())
        searches = []

        def spy(graph, sources, max_depth=None, allowed=None):
            searches.append((set(sources), bytes(allowed)))
            return distance_layers(graph, sources, max_depth=max_depth, allowed=allowed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(happiness_mod, "distance_layers", spy)
            result = build_happiness_layers(
                graph, colors, h_nodes, h_mask, marking, delta, r, RoundLedger()
            )
        return h_nodes, colors, result, searches

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_pass_over_colors(self, case, python_twins):
        graph, *_, r = self.CASES[case]
        h_nodes, colors, result, searches = self.phase5(case)
        # The case the shortcut must get right: marks uncolored by the
        # boundary rule, marks kept, and a leftover not in ascending order.
        assert result.uncolored_marks and result.marked
        assert list(result.leftover) != sorted(result.leftover)
        uncolored_h = {v for v in h_nodes if colors[v] == UNCOLORED}
        seeds = (result.t_nodes | result.boundary) & uncolored_h
        assert searches == [(seeds, bytes(v in uncolored_h for v in range(graph.n)))]
        assert result.layers == distance_layers(
            graph, seeds, max_depth=2 * r, allowed=uncolored_h
        )
        layered = {v for layer in result.layers for v in layer}
        assert list(result.leftover) == list(uncolored_h - layered)
        if case == "sparse":
            # Here the set difference has another order: the pin can fail.
            other = (h_nodes - result.marked) - layered
            assert other == result.leftover and list(other) != list(result.leftover)
        twin = python_twins(self.phase5, case)
        assert twin[1] == colors
        assert (twin[2].layers, list(twin[2].leftover)) == (
            result.layers, list(result.leftover)
        )
        assert twin[3] == searches
