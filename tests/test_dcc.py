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


class TestRulingSetInputChecks:
    """Bad DCC lists fail on both tiers with the same error, before a
    coin is drawn or a round charged."""

    @staticmethod
    def run(dccs, **kwargs):
        graph = random_regular_graph(20, 3, seed=1)
        ledger, rng = RoundLedger(), random.Random(5)
        try:
            outcome = virtual_graph_ruling_set(
                graph, dccs, rounds_per_virtual=3, ledger=ledger, rng=rng, **kwargs
            )
        except (IndexError, ValueError) as error:
            outcome = (type(error), str(error))
        return outcome, ledger.total_rounds, rng.getstate()

    @pytest.mark.parametrize(
        "dccs, bad",
        [
            ([(-1, 0, 1, 2), (19, 5)], 0),  # -1 must not alias node 19
            ([(0, 1), (19, 20)], 1),
            ([(3, 4), (5,), (2**31,)], 2),
            ([(2**40, 1)], 0),
        ],
    )
    def test_member_out_of_range(self, dccs, bad, python_twins):
        expected = (
            (IndexError, f"DCC {bad} holds a node out of range for n=20"),
            0,
            random.Random(5).getstate(),
        )
        assert self.run(dccs) == expected
        assert python_twins(self.run, dccs) == expected

    def test_range_is_checked_before_repeats(self, python_twins):
        dccs = [(0, 1, 1), (7,), (20,)]
        expected = (IndexError, "DCC 2 holds a node out of range for n=20")
        assert self.run(dccs)[0] == python_twins(self.run, dccs)[0] == expected

    def test_repeated_member(self, python_twins):
        # A DCC holding a node twice would conflict with itself and never
        # join; it is refused instead.
        expected = (
            (ValueError, "DCC 1 holds node 4 twice"), 0, random.Random(5).getstate()
        )
        assert self.run([(0, 1), (3, 4, 4)]) == expected
        assert python_twins(self.run, [(0, 1), (3, 4, 4)]) == expected

    def test_scratch_of_another_size(self):
        graph = random_regular_graph(20, 3, seed=1)
        with pytest.raises(ValueError, match="sized for n=19"):
            virtual_graph_ruling_set(graph, [(0, 1)], 3, scratch=DCCScratch(19))

    def test_shared_scratch_is_left_at_rest(self):
        graph = torus_grid(12, 12)
        dccs = detect_dccs(graph, radius=2).dccs
        scratch = DCCScratch(graph.n)
        for seed in range(3):
            with_scratch = virtual_graph_ruling_set(
                graph, dccs, 5, rng=random.Random(seed), scratch=scratch
            )
            assert with_scratch == virtual_graph_ruling_set(
                graph, dccs, 5, rng=random.Random(seed)
            )
            zeroed = scratch.kernel_buffers()[0]
            assert not any(zeroed)
