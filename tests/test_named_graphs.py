"""Tests on named classic graphs — the standard coloring sanity vectors."""

import pytest

from repro import slocal_delta_coloring, solve, validate_coloring
from repro.graphs.named import (
    circulant_graph,
    complete_bipartite,
    kneser_graph,
    petersen_graph,
)
from repro.graphs.properties import girth_up_to, is_nice


class TestPetersen:
    def test_structure(self):
        g = petersen_graph()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert girth_up_to(g, 6) == 5
        assert is_nice(g)

    def test_delta_coloring(self):
        g = petersen_graph()
        result = solve(g, algorithm="randomized", seed=1)
        validate_coloring(g, result.colors, max_colors=3)

    def test_deterministic(self):
        g = petersen_graph()
        result = solve(g, algorithm="deterministic")
        validate_coloring(g, result.colors, max_colors=3)

    def test_slocal(self):
        g = petersen_graph()
        colors, _run = slocal_delta_coloring(g)
        validate_coloring(g, colors, max_colors=3)


class TestCompleteBipartite:
    @pytest.mark.parametrize("a,b", [(3, 3), (3, 5), (4, 4), (2, 6)])
    def test_delta_coloring(self, a, b):
        g = complete_bipartite(a, b)
        assert is_nice(g)
        result = solve(g, algorithm="randomized", seed=a * 10 + b)
        validate_coloring(g, result.colors, max_colors=max(a, b))

    def test_structure(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.num_edges == 12
        assert g.max_degree() == 4

    @pytest.mark.parametrize("a,b", [(3, 3), (3, 4)])
    def test_ps_baseline(self, a, b):
        g = complete_bipartite(a, b)
        result = solve(g, algorithm="ps", seed=1)
        validate_coloring(g, result.colors, max_colors=max(a, b))


class TestKneser:
    def test_k52_is_petersen(self):
        g = kneser_graph(5, 2)
        assert g.n == 10
        assert all(g.degree(v) == 3 for v in range(10))

    def test_k72_delta_coloring(self):
        g = kneser_graph(7, 2)  # 21 nodes, 10-regular
        assert all(g.degree(v) == 10 for v in range(g.n))
        result = solve(g, algorithm="randomized", seed=2)
        validate_coloring(g, result.colors, max_colors=10)

    def test_k62_delta_coloring(self):
        g = kneser_graph(6, 2)  # 15 nodes, 6-regular
        result = solve(g, algorithm="randomized", seed=3)
        validate_coloring(g, result.colors, max_colors=6)


class TestCirculant:
    @pytest.mark.parametrize("n,offsets", [(20, [1, 2]), (30, [1, 3, 7]), (16, [2, 5])])
    def test_delta_coloring(self, n, offsets):
        g = circulant_graph(n, offsets)
        if not is_nice(g):
            pytest.skip("degenerate circulant")
        result = solve(g, algorithm="randomized", seed=n)
        validate_coloring(g, result.colors, max_colors=g.max_degree())

    def test_offsets_validated(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            circulant_graph(10, [6])
