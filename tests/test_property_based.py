"""Property-based tests (hypothesis) over the end-to-end pipeline and the
core invariants.

These complement the per-module tests with randomized instance
generation: any nice graph the strategies produce must be Δ-colorable by
every pipeline, any marking run must satisfy the structural invariants,
and the graph substrate must satisfy its own algebra.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core.degree_choosable import degree_list_color
from repro.core.marking import marking_process
from repro.errors import InfeasibleListColoringError
from repro.graphs.bfs import bfs_ball, bfs_distances, distance_layers
from repro.graphs.generators import (
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
)
from repro.graphs.properties import is_gallai_tree
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger


class TestEndToEndProperties:
    @given(
        delta=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_delta_color_on_random_nice_graphs(self, delta, seed):
        graph = random_nice_graph(80 + 10 * delta, delta, seed=seed)
        result = solve(graph, algorithm="randomized", seed=seed)
        validate_coloring(graph, result.colors, max_colors=delta)

    @given(
        d=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_delta_color_on_regular_graphs(self, d, seed):
        n = 120 if (120 * d) % 2 == 0 else 121
        graph = random_regular_graph(n, d, seed=seed)
        result = solve(graph, algorithm="randomized", seed=seed)
        validate_coloring(graph, result.colors, max_colors=d)


class TestBrooksProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_regular_nice_graphs_are_never_gallai(self, seed):
        """The structural fact behind centralized Brooks: a Δ-regular nice
        graph (Δ >= 3) always contains a degree-choosable block."""
        graph = random_regular_graph(60, 3, seed=seed)
        assert not is_gallai_tree(graph)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_degree_lists_on_regular_always_solvable(self, seed):
        graph = random_regular_graph(60, 4, seed=seed)
        lists = [set(range(1, 5)) for _ in range(graph.n)]
        colors = degree_list_color(graph, lists)
        validate_coloring(graph, colors, max_colors=4)


class TestMarkingInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        p_scale=st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_marks_always_proper_and_structured(self, seed, p_scale):
        graph = random_regular_graph(300, 4, seed=seed)
        colors = [UNCOLORED] * graph.n
        p = min(0.2, 0.01 * p_scale)
        outcome = marking_process(
            graph, set(range(graph.n)), colors, p, 6,
            random.Random(seed), RoundLedger(),
        )
        validate_coloring(graph, colors, allow_partial=True)
        adj_sets = graph.adjacency_sets()
        for t, (u1, u2) in outcome.t_nodes.items():
            assert u1 not in adj_sets[u2]
            assert colors[u1] == 1 and colors[u2] == 1
        # survivors pairwise farther than the backoff
        survivors = sorted(outcome.t_nodes)
        for v in survivors:
            dist = bfs_distances(graph, [v], max_depth=6)
            assert all(dist[u] == -1 for u in survivors if u != v)


class TestSubstrateAlgebra:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_ball_matches_distances(self, seed, radius):
        graph = random_graph_with_max_degree(60, 4, target_avg_degree=2.5, seed=seed)
        center = seed % graph.n
        ball = set(bfs_ball(graph, center, radius))
        dist = bfs_distances(graph, [center])
        expected = {v for v in range(graph.n) if 0 <= dist[v] <= radius}
        assert ball == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_layers_partition_reachable_set(self, seed):
        graph = random_graph_with_max_degree(80, 4, target_avg_degree=2.5, seed=seed)
        base = [seed % graph.n, (seed * 7 + 1) % graph.n]
        layers = distance_layers(graph, base)
        flattened = [v for layer in layers for v in layer]
        assert len(flattened) == len(set(flattened))
        dist = bfs_distances(graph, base)
        assert sorted(flattened) == [v for v in range(graph.n) if dist[v] != -1]
        for i, layer in enumerate(layers):
            assert all(dist[v] == i for v in layer)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_subgraph_degree_never_increases(self, seed, k):
        graph = random_graph_with_max_degree(60, 5, target_avg_degree=3.0, seed=seed)
        rng = random.Random(seed)
        nodes = rng.sample(range(graph.n), 60 // k)
        sub, originals = graph.subgraph(nodes)
        for i, v in enumerate(originals):
            assert sub.degree(i) <= graph.degree(v)


class TestListColoringFeasibilityProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_deg_plus_one_lists_always_feasible(self, seed):
        """(deg+1)-lists are solvable on every graph — the foundation of
        the whole layering technique."""
        graph = random_graph_with_max_degree(50, 5, target_avg_degree=3.0, seed=seed)
        rng = random.Random(seed)
        lists = [
            set(rng.sample(range(1, 2 * (graph.degree(v) + 1) + 1), graph.degree(v) + 1))
            for v in range(graph.n)
        ]
        for component in graph.connected_components():
            sub, originals = graph.subgraph(component)
            sub_lists = [set(lists[v]) for v in originals]
            try:
                colors = degree_list_color(sub, sub_lists)
            except InfeasibleListColoringError as exc:
                raise AssertionError(
                    "deg+1 instance must always be feasible"
                ) from exc
            for i in range(sub.n):
                assert colors[i] in sub_lists[i]
