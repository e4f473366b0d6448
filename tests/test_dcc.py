"""Tests for DCC detection and the virtual graph G_DCC (phases 1-2)."""

import random

import pytest

from repro.core.dcc import DCCScratch, detect_dccs, virtual_graph_ruling_set
from repro.graphs.generators import (
    complete_graph_minus_edge,
    random_gallai_tree,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.properties import is_degree_choosable_component
from repro.local.rounds import RoundLedger


class TestDetection:
    def test_torus_every_node_selects(self):
        g = torus_grid(8, 8)
        detection = detect_dccs(g, radius=2)
        assert all(detection.selected_by[v] != -1 for v in range(g.n))
        for dcc in detection.dccs:
            assert is_degree_choosable_component(g, dcc)

    def test_high_girth_has_no_small_dccs(self, high_girth_cubic):
        detection = detect_dccs(high_girth_cubic, radius=2)
        assert detection.dccs == []
        assert detection.nodes_in_dccs == set()

    def test_gallai_tree_has_no_dccs_at_any_radius(self):
        g = random_gallai_tree(12, seed=4)
        detection = detect_dccs(g, radius=6)
        assert detection.dccs == []

    def test_k_minus_edge_detected(self):
        g = complete_graph_minus_edge(6)
        detection = detect_dccs(g, radius=2)
        assert len(detection.dccs) == 1
        assert set(detection.dccs[0]) == set(range(6))

    def test_rounds_charged_equal_radius(self):
        g = torus_grid(5, 5)
        ledger = RoundLedger()
        detection = detect_dccs(g, radius=3, ledger=ledger)
        assert ledger.total_rounds == 3
        assert detection.rounds == 3

    def test_active_subset(self):
        g = torus_grid(8, 8)
        active = set(range(0, 32))  # four torus rows: still contains 4-cycles
        detection = detect_dccs(g, radius=2, active=active)
        for dcc in detection.dccs:
            assert set(dcc) <= active

    def test_random_regular_detects_only_cycle_neighborhoods(self):
        g = random_regular_graph(400, 3, seed=8)
        detection = detect_dccs(g, radius=2)
        # locally tree-like: only a few nodes live on short cycles
        assert len(detection.nodes_in_dccs) < g.n // 4
        for dcc in detection.dccs:
            assert is_degree_choosable_component(g, dcc)


class TestSharedScratch:
    """detect_dccs(scratch=...) — the hoisted per-layer mask/scratch."""

    def test_scratch_reuse_matches_fresh_allocation(self):
        g = torus_grid(8, 8)
        scratch = DCCScratch(g.n)
        layers = [
            set(range(0, 32)),
            set(range(16, 64)),
            set(range(0, 64, 3)) | set(range(1, 20)),
        ]
        for active in layers:
            fresh = detect_dccs(g, radius=2, active=active)
            shared = detect_dccs(g, radius=2, active=active, scratch=scratch)
            assert fresh.dccs == shared.dccs
            assert fresh.selected_by == shared.selected_by
            assert fresh.nodes_in_dccs == shared.nodes_in_dccs
        # the scratch is handed back zeroed every time
        assert not any(scratch.mask)
        assert not any(scratch.active_mask)
        assert not any(scratch.cyclic)
        assert not any(scratch.scratch[0]) and not any(scratch.scratch[1])

    def test_scratch_reuse_on_full_graph_sweeps(self):
        g = random_regular_graph(300, 4, seed=3)
        scratch = DCCScratch(g.n)
        fresh = detect_dccs(g, radius=2)
        shared = detect_dccs(g, radius=2, scratch=scratch)
        assert fresh.dccs == shared.dccs
        assert fresh.selected_by == shared.selected_by

    def test_scratch_size_mismatch_rejected(self):
        g = torus_grid(5, 5)
        with pytest.raises(ValueError, match="sized for"):
            detect_dccs(g, radius=2, scratch=DCCScratch(g.n + 1))

    def test_layered_pipeline_outputs_unchanged_fixed_seed(self):
        """The components pipeline (per-component detect_dccs through the
        shared scratch) must keep its fixed-seed outputs: same digest via
        the facade whether or not a warm scratch is in play."""
        import hashlib

        from repro.api import solve
        from repro.graphs.generators import disjoint_union
        from repro.graphs.validation import validate_coloring

        graph = disjoint_union(
            [torus_grid(4, 5), complete_graph_minus_edge(6), torus_grid(3, 7)]
        )
        digests = set()
        for _ in range(2):
            result = solve(graph, algorithm="components", seed=2)
            validate_coloring(graph, list(result.colors), max_colors=result.palette)
            digests.add(
                hashlib.sha256(
                    ",".join(map(str, result.colors)).encode()
                ).hexdigest()
            )
        assert len(digests) == 1


class TestVirtualRulingSet:
    def _conflicts(self, graph, dccs, a, b):
        set_a, set_b = set(dccs[a]), set(dccs[b])
        if set_a & set_b:
            return True
        adj = graph.adjacency_sets()
        return any(u in adj[v] for v in set_a for u in set_b)

    @pytest.mark.parametrize("seed", range(4))
    def test_independence(self, seed):
        g = torus_grid(8, 8)
        detection = detect_dccs(g, radius=2)
        chosen, _ = virtual_graph_ruling_set(
            g, detection.dccs, rounds_per_virtual=5, rng=random.Random(seed)
        )
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert not self._conflicts(g, detection.dccs, a, b)

    def test_maximality_every_dcc_dominated(self):
        g = torus_grid(8, 8)
        detection = detect_dccs(g, radius=2)
        chosen, _ = virtual_graph_ruling_set(
            g, detection.dccs, rounds_per_virtual=5, rng=random.Random(1)
        )
        chosen_set = set(chosen)
        for idx in range(len(detection.dccs)):
            if idx in chosen_set:
                continue
            assert any(self._conflicts(g, detection.dccs, idx, c) for c in chosen_set)

    def test_empty_input(self):
        g = torus_grid(5, 5)
        chosen, iterations = virtual_graph_ruling_set(g, [], rounds_per_virtual=3)
        assert chosen == [] and iterations == 0

    def test_rounds_charged(self):
        g = torus_grid(6, 6)
        detection = detect_dccs(g, radius=2)
        ledger = RoundLedger()
        _, iterations = virtual_graph_ruling_set(
            g, detection.dccs, rounds_per_virtual=5, ledger=ledger, rng=random.Random(2)
        )
        assert ledger.total_rounds >= 2 * 5 * iterations

    def test_iteration_cap_with_finisher_still_maximal(self):
        g = torus_grid(10, 10)
        detection = detect_dccs(g, radius=2)
        chosen, _ = virtual_graph_ruling_set(
            g, detection.dccs, rounds_per_virtual=5, rng=random.Random(3), max_iterations=1
        )
        chosen_set = set(chosen)
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert not self._conflicts(g, detection.dccs, a, b)
        for idx in range(len(detection.dccs)):
            if idx not in chosen_set:
                assert any(self._conflicts(g, detection.dccs, idx, c) for c in chosen_set)
