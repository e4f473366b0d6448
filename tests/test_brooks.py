"""Tests for the distributed Brooks' theorem repair (Theorem 5)."""

import random

import pytest

from repro.core.brooks import default_fix_radius, fix_uncolored_node
from repro.core.degree_choosable import degree_list_color
from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.graphs.generators import (
    hypercube,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.validation import UNCOLORED, validate_coloring


def _color_minus_v(graph, v, delta, rng, glauber_steps=None):
    """Δ-color G−v from scratch (the true Theorem 5 precondition), then
    randomize with Glauber dynamics to diversify the neighbourhood."""
    colors = [UNCOLORED] * graph.n
    rest = [u for u in range(graph.n) if u != v]
    sub, originals = graph.subgraph(rest)
    for component in sub.connected_components():
        comp_orig = sorted(originals[i] for i in component)
        sub2, orig2 = graph.subgraph(comp_orig)
        lists = [set(range(1, delta + 1)) for _ in range(sub2.n)]
        try:
            assignment = degree_list_color(sub2, lists)
        except InfeasibleListColoringError:
            return None
        for i, u in enumerate(orig2):
            colors[u] = assignment[i]
    steps = glauber_steps if glauber_steps is not None else 6 * graph.n
    for _ in range(steps):
        u = rng.randrange(graph.n)
        if u == v:
            continue
        used = {colors[w] for w in graph.adj[u] if w != v and colors[w] != UNCOLORED}
        options = [c for c in range(1, delta + 1) if c not in used and c != colors[u]]
        if options:
            colors[u] = rng.choice(options)
    return colors


class TestBasicRepair:
    def test_rejects_colored_node(self):
        g = torus_grid(5, 5)
        colors = [1] * g.n
        with pytest.raises(AlgorithmContractError):
            fix_uncolored_node(g, colors, 0, 4)

    def test_free_color_case(self):
        g = torus_grid(5, 5)
        colors = degree_list_color(g, [set(range(1, 5)) for _ in range(g.n)])
        colors[7] = UNCOLORED
        result = fix_uncolored_node(g, colors, 7, 4)
        validate_coloring(g, colors, max_colors=4)
        assert result.mode == "free"
        assert result.recolored == []


class TestScratchRepair:
    @pytest.mark.parametrize("d,n", [(3, 200), (4, 300), (5, 200)])
    def test_random_regular_many_seeds(self, d, n):
        for seed in range(8):
            g = random_regular_graph(n, d, seed=seed)
            rng = random.Random(seed * 13 + 1)
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, d, rng)
            if colors is None:
                continue
            result = fix_uncolored_node(g, colors, v, d)
            validate_coloring(g, colors, max_colors=d)
            assert result.radius <= default_fix_radius(g.n, d)

    def test_torus(self):
        g = torus_grid(9, 9)
        rng = random.Random(5)
        for trial in range(6):
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 4, rng)
            fix_uncolored_node(g, colors, v, 4)
            validate_coloring(g, colors, max_colors=4)

    def test_hypercube(self):
        g = hypercube(4)
        rng = random.Random(6)
        for trial in range(6):
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 4, rng)
            if colors is None:
                continue
            fix_uncolored_node(g, colors, v, 4)
            validate_coloring(g, colors, max_colors=4)

    @pytest.mark.parametrize("seed", range(5))
    def test_irregular(self, seed):
        g = random_nice_graph(150, 5, seed=seed)
        rng = random.Random(seed)
        v = rng.randrange(g.n)
        colors = _color_minus_v(g, v, 5, rng)
        if colors is None:
            pytest.skip("component infeasible without v")
        result = fix_uncolored_node(g, colors, v, 5)
        validate_coloring(g, colors, max_colors=5)
        # irregular graphs have deficient nodes: repairs stay very local
        assert result.radius <= default_fix_radius(g.n, 5)


class TestRadiusBound:
    """Theorem 5's quantitative claim: repairs fit in 2·log_{Δ-1} n."""

    def test_radius_bound_over_many_repairs(self):
        bound = default_fix_radius(400, 3)
        worst = 0
        for seed in range(10):
            g = random_regular_graph(400, 3, seed=seed + 50)
            rng = random.Random(seed)
            v = rng.randrange(g.n)
            colors = _color_minus_v(g, v, 3, rng)
            if colors is None:
                continue
            result = fix_uncolored_node(g, colors, v, 3)
            validate_coloring(g, colors, max_colors=3)
            worst = max(worst, result.radius)
        assert worst <= bound

    def test_default_radius_formula(self):
        # 2*ceil(log_3(1000)) + 2 = 2*7+2
        assert default_fix_radius(1000, 4) == 16
        assert default_fix_radius(2, 4) >= 2


class TestMultipleUncoloredNodes:
    """The deterministic algorithm repairs many far-apart nodes; each fix
    must tolerate other uncolored nodes outside its ball."""

    def test_two_far_apart_nodes(self):
        g = random_regular_graph(500, 4, seed=77)
        base = degree_list_color(g, [set(range(1, 5)) for _ in range(g.n)])
        from repro.graphs.bfs import bfs_distances

        v = 0
        dist = bfs_distances(g, [v])
        far = max(range(g.n), key=lambda u: dist[u])
        colors = list(base)
        colors[v] = UNCOLORED
        colors[far] = UNCOLORED
        fix_uncolored_node(g, colors, v, 4)
        fix_uncolored_node(g, colors, far, 4)
        validate_coloring(g, colors, max_colors=4)
