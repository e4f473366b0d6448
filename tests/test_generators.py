"""Generator tests, including hypothesis property tests on parameters."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    disjoint_union,
    high_girth_regular_graph,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
    random_tree,
    torus_grid,
)
from repro.graphs.properties import girth_up_to, is_gallai_tree, is_nice


class TestBasicFamilies:
    def test_cycle(self):
        g = cycle_graph(7)
        assert g.n == 7 and g.num_edges == 7
        assert all(g.degree(v) == 2 for v in range(7))

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_complete_minus_edge(self):
        g = complete_graph_minus_edge(6)
        assert g.num_edges == 14
        assert not g.has_edge(0, 1)
        assert g.max_degree() == 5 and g.min_degree() == 4

    def test_torus_regular(self):
        g = torus_grid(5, 8)
        assert all(g.degree(v) == 4 for v in range(g.n))
        assert g.is_connected()

    def test_torus_rejects_small(self):
        with pytest.raises(GraphError):
            torus_grid(2, 5)

    def test_hypercube(self):
        g = hypercube(4)
        assert g.n == 16
        assert all(g.degree(v) == 4 for v in range(16))
        assert g.is_connected()


class TestRandomRegular:
    @given(
        n=st.integers(min_value=10, max_value=120),
        d=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_regularity_property(self, n, d, seed):
        if (n * d) % 2 == 1:
            n += 1
        g = random_regular_graph(n, d, seed=seed)
        assert g.n == n
        assert all(g.degree(v) == d for v in range(n))
        assert g.num_edges == n * d // 2

    def test_rejects_odd_total(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3, seed=0)

    def test_rejects_d_ge_n(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4, seed=0)

    def test_deterministic_given_seed(self):
        a = random_regular_graph(60, 3, seed=5)
        b = random_regular_graph(60, 3, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seeds_differ(self):
        a = random_regular_graph(60, 3, seed=5)
        b = random_regular_graph(60, 3, seed=6)
        assert sorted(a.edges()) != sorted(b.edges())


class TestConfigurationModelPaths:
    """The configuration model's output, pinned by the SHA-256 of the CSR
    bytes (offsets, then indices) at the sizes perfbench uses.  The
    digests were taken when the generator still had a numpy path beside
    the pure-Python one; both gave these bytes."""

    PINS = {
        "rrg(32768, 8, seed=1)": (
            lambda: random_regular_graph(32768, 8, seed=1),
            "6473c191bbea2ee2aaaf5187fae91b0fc5933fc821f63b49f7d5a67ce34d4c4d",
        ),
        "high_girth(2048, 3, 9, seed=1)": (
            lambda: high_girth_regular_graph(2048, 3, 9, seed=1),
            "941fba1a57cf0fbeb631efb0f7d6b56fef30d341f259648990b8d8f0633e7826",
        ),
    }

    def test_generated_csr_bytes_are_pinned(self):
        for name, (make, expected) in self.PINS.items():
            offsets, indices = make().csr()
            digest = hashlib.sha256(offsets.tobytes() + indices.tobytes()).hexdigest()
            assert digest == expected, name


class TestCirculantFallback:
    """Property tests for _circulant_with_swaps — the dense/small escape
    hatch of random_regular_graph (d near n, including odd d): the swap
    phase must preserve exact d-regularity and simplicity, and the odd-d
    matching rung must stay valid for every even n (odd n//2 included)."""

    @given(
        n=st.integers(min_value=4, max_value=60),
        gap=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_regular_simple_near_n(self, n, gap, seed):
        from repro.graphs.generators import _circulant_with_swaps

        d = n - gap  # the dense regime where the stub pairing collides
        if d < 1:
            return
        if (n * d) % 2 == 1:
            d -= 1
            if d < 1:
                return
        graph = _circulant_with_swaps(n, d, random.Random(seed))
        assert graph.n == n
        assert graph.num_edges == n * d // 2
        degrees = graph.degrees()
        assert degrees == [d] * n, f"swap phase broke d-regularity (n={n}, d={d})"
        edges = sorted(graph.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v and 0 <= u < v < n for u, v in edges)

    @given(
        half=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_odd_d_matching_rung(self, half, seed):
        """Odd d on n = 2·half nodes (odd halves included): the +n/2
        matching must complete every degree exactly once."""
        from repro.graphs.generators import _circulant_with_swaps

        n = 2 * half
        d = min(n - 1, 2 * (half // 2) + 1)  # odd, < n
        graph = _circulant_with_swaps(n, d, random.Random(seed))
        assert graph.degrees() == [d] * n
        assert graph.num_edges == n * d // 2

    def test_seed_determinism(self):
        from repro.graphs.generators import _circulant_with_swaps

        for n, d in [(10, 9), (14, 11), (22, 19), (12, 7)]:
            a = _circulant_with_swaps(n, d, random.Random(5))
            b = _circulant_with_swaps(n, d, random.Random(5))
            c = _circulant_with_swaps(n, d, random.Random(6))
            assert sorted(a.edges()) == sorted(b.edges())
            assert a.degrees() == c.degrees() == [d] * n

    def test_dense_public_path_uses_fallback_and_stays_regular(self):
        # d = n-1 (complete graph) and d = n-2: stub pairing keeps
        # colliding, so random_regular_graph must reach the circulant
        # fallback and still deliver exact regularity.
        for n, d in [(8, 7), (10, 8), (12, 11)]:
            graph = random_regular_graph(n, d, seed=2)
            assert graph.degrees() == [d] * n


class TestHighGirth:
    @pytest.mark.parametrize("n,d,girth", [(300, 3, 7), (400, 3, 8), (300, 4, 6)])
    def test_girth_reached(self, n, d, girth):
        g = high_girth_regular_graph(n, d, girth, seed=3)
        measured = girth_up_to(g, girth - 1)
        assert measured is None
        assert all(g.degree(v) == d for v in range(n))
        assert g.is_connected()


class TestIrregularAndTrees:
    def test_max_degree_respected(self):
        g = random_graph_with_max_degree(200, 5, target_avg_degree=3.5, seed=1)
        assert g.max_degree() <= 5

    def test_tree_is_acyclic_connected(self):
        g = random_tree(50, seed=4)
        assert g.num_edges == 49
        assert g.is_connected()

    def test_tree_degree_cap(self):
        g = random_tree(60, seed=4, max_degree=3)
        assert g.max_degree() <= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_gallai_tree_property(self, seed):
        g = random_gallai_tree(10, seed=seed)
        assert is_gallai_tree(g)
        assert g.is_connected()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nice_graph(self, seed):
        g = random_nice_graph(150, 4, seed=seed)
        assert is_nice(g)
        assert g.max_degree() == 4


class TestDisjointUnion:
    def test_union_counts(self):
        g = disjoint_union([cycle_graph(3), cycle_graph(4)])
        assert g.n == 7
        assert g.num_edges == 7
        assert len(g.connected_components()) == 2
