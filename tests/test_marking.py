"""Tests for the marking process (phase 4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marking import (
    MARK_COLOR,
    _draws,
    _select,
    _select_python,
    _without_close_pairs,
    default_selection_probability,
    marking_process,
)
from repro.errors import AlgorithmContractError
from repro.graphs.bfs import bfs_distances
from repro.graphs.generators import (
    high_girth_regular_graph,
    random_nice_graph,
    random_regular_graph,
)
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger


def _run(graph, p=None, backoff=6, seed=0):
    h_nodes = set(range(graph.n))
    colors = [UNCOLORED] * graph.n
    if p is None:
        p = default_selection_probability(graph.max_degree(), backoff)
    outcome = marking_process(
        graph, h_nodes, colors, p, backoff, random.Random(seed), RoundLedger()
    )
    return outcome, colors


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_marks_colored_one_everything_else_uncolored(self, seed):
        g = random_regular_graph(800, 4, seed=seed)
        outcome, colors = _run(g, p=0.01, seed=seed)
        for v in range(g.n):
            if v in outcome.marked:
                assert colors[v] == MARK_COLOR
            else:
                assert colors[v] == UNCOLORED

    @pytest.mark.parametrize("seed", range(6))
    def test_t_nodes_have_two_nonadjacent_marked_neighbors(self, seed):
        g = random_regular_graph(800, 4, seed=seed)
        outcome, colors = _run(g, p=0.01, seed=seed)
        adj_sets = g.adjacency_sets()
        for t, (u1, u2) in outcome.t_nodes.items():
            assert u1 in adj_sets[t] and u2 in adj_sets[t]
            assert u1 not in adj_sets[u2]
            assert colors[u1] == MARK_COLOR and colors[u2] == MARK_COLOR

    @pytest.mark.parametrize("seed", range(6))
    def test_survivors_pairwise_far(self, seed):
        backoff = 6
        g = random_regular_graph(800, 3, seed=seed)
        outcome, _ = _run(g, p=0.02, backoff=backoff, seed=seed)
        survivors = sorted(outcome.t_nodes)
        for v in survivors:
            dist = bfs_distances(g, [v], max_depth=backoff)
            for u in survivors:
                if u != v:
                    assert dist[u] == -1, f"T-nodes {v},{u} within backoff"

    @pytest.mark.parametrize("seed", range(6))
    def test_marks_of_distinct_t_nodes_not_adjacent(self, seed):
        g = random_regular_graph(800, 4, seed=seed)
        outcome, _ = _run(g, p=0.02, seed=seed)
        adj_sets = g.adjacency_sets()
        marks = list(outcome.t_nodes.items())
        for i, (t1, pair1) in enumerate(marks):
            for t2, pair2 in marks[i + 1:]:
                for a in pair1:
                    for b in pair2:
                        assert a != b
                        assert b not in adj_sets[a]

    def test_marking_is_proper_coloring(self):
        g = random_regular_graph(1000, 4, seed=9)
        _outcome, colors = _run(g, p=0.02, seed=9)
        from repro.graphs.validation import validate_coloring

        validate_coloring(g, colors, allow_partial=True)


class TestGuards:
    def test_backoff_below_five_rejected(self):
        g = random_regular_graph(50, 3, seed=1)
        with pytest.raises(AlgorithmContractError, match="backoff"):
            marking_process(g, set(range(g.n)), [UNCOLORED] * g.n, 0.1, 4)

    def test_precolored_h_rejected(self):
        g = random_regular_graph(50, 3, seed=1)
        colors = [UNCOLORED] * g.n
        colors[3] = 2
        with pytest.raises(AlgorithmContractError, match="precondition"):
            marking_process(g, set(range(g.n)), colors, 0.1, 6)

    @pytest.mark.parametrize("tier", ["dispatched", "twin"])
    @pytest.mark.parametrize("bad", [-1, 64, 2**31, 2**40])
    def test_out_of_range_h_node_rejected_before_any_draw(self, bad, tier, python_twins):
        # Node -1 used to mark node n-1 as part of H and count as
        # selected; node n raised an untyped "list index out of range".
        g = random_regular_graph(64, 3, seed=1)
        colors = [UNCOLORED] * g.n
        rng, ledger = random.Random(5), RoundLedger()
        h_nodes = set(range(10, 20)) | {bad}
        run = python_twins if tier == "twin" else (lambda fn, *args: fn(*args))
        with pytest.raises(IndexError, match=f"^H node {bad} is out of range for n=64$"):
            run(marking_process, g, h_nodes, colors, 0.9, 6, rng, ledger)
        assert rng.getstate() == random.Random(5).getstate()
        assert colors == [UNCOLORED] * g.n
        assert ledger.total_rounds == 0

    def test_rounds_charged(self):
        g = random_regular_graph(100, 3, seed=2)
        ledger = RoundLedger()
        marking_process(g, set(range(g.n)), [UNCOLORED] * g.n, 0.05, 6, random.Random(1), ledger)
        assert ledger.total_rounds == 6 + 2


class TestSelectionProbability:
    def test_decreases_with_backoff(self):
        assert default_selection_probability(3, 8) < default_selection_probability(3, 5)

    def test_decreases_with_delta(self):
        assert default_selection_probability(8, 6) < default_selection_probability(3, 6)

    def test_bounded(self):
        for delta in (3, 5, 10, 50):
            p = default_selection_probability(delta, 6)
            assert 0 < p <= 0.25


class TestStatistics:
    def test_counters_consistent(self):
        g = high_girth_regular_graph(600, 3, girth=8, seed=3)
        outcome, _ = _run(g, seed=4)
        assert outcome.initially_selected >= len(outcome.t_nodes)
        assert outcome.backed_off + len(outcome.t_nodes) + outcome.no_pair_available \
            == outcome.initially_selected
        assert len(outcome.marked) == 2 * len(outcome.t_nodes)


def _carved_h(graph, kind: str, rng: random.Random) -> set[int]:
    """The remainder graph H: all of V, V minus random nodes, or V minus
    a few BFS balls (the shape the B-layers cut out of a graph)."""
    nodes = set(range(graph.n))
    if kind == "random":
        return {v for v in nodes if rng.random() >= 0.3}
    if kind == "balls":
        centers = [rng.randrange(graph.n) for _ in range(3)]
        dist = bfs_distances(graph, centers, max_depth=2)
        return {v for v in nodes if dist[v] == -1}
    return nodes


def _oracle_survivors(graph, selected: set[int], backoff: int, h_nodes: set[int]):
    """{v in selected : no other selected node within ``backoff`` inside H},
    by one plain BFS per selected node, checked against every other one."""
    survivors = set()
    for v in selected:
        dist = bfs_distances(graph, [v], max_depth=backoff, allowed=h_nodes)
        if all(dist[u] == -1 for u in selected if u != v):
            survivors.add(v)
    return survivors


GRAPHS = {
    "rrg3": lambda seed: random_regular_graph(400, 3, seed=seed),
    "rrg4": lambda seed: random_regular_graph(300, 4, seed=seed),
    "rrg6": lambda seed: random_regular_graph(200, 6, seed=seed),
    "nice4": lambda seed: random_nice_graph(300, 4, seed=seed),
    "girth8": lambda seed: high_girth_regular_graph(300, 3, girth=8, seed=seed % 4),
}


class TestBackoffOracle:
    """The backoff rule against a plain BFS oracle: on random regular and
    nice graphs, full and carved H, ``backoff`` 5-8 and ``p`` from the
    preset up to 0.25, exactly the selected nodes with no other selected
    node within ``backoff`` inside H survive."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(0, 1000),
        h_kind=st.sampled_from(["full", "random", "balls"]),
        backoff=st.integers(5, 8),
        p_scale=st.sampled_from([1.0, 3.0, 20.0, None]),
    )
    def test_survivors_match_oracle(self, family, seed, h_kind, backoff, p_scale):
        graph = GRAPHS[family](seed)
        rng = random.Random(seed)
        h_nodes = _carved_h(graph, h_kind, rng)
        preset = default_selection_probability(graph.max_degree(), backoff)
        p = 0.25 if p_scale is None else min(0.25, preset * p_scale)

        replay = random.Random(seed + 1)
        selected = {v for v in h_nodes if replay.random() < p}
        h_mask = bytearray(graph.n)
        for v in h_nodes:
            h_mask[v] = 1
        expected = _oracle_survivors(graph, selected, backoff, h_nodes)
        assert _without_close_pairs(graph, selected, backoff, h_mask) == expected

        # The dispatched selection (the kernel when it is loaded) and the
        # twin draw the same nodes and keep exactly the oracle's survivors.
        for select in (_select, _select_python):
            replay = random.Random(seed + 1)
            survivors, chosen = select(
                graph, h_nodes, [UNCOLORED] * graph.n, p, backoff, replay
            )
            assert (survivors, chosen) == (sorted(expected), len(selected))
            assert replay.getstate() == rng_after(seed + 1, len(h_nodes))

        # marking_process draws the same selection and backs off the rest.
        colors = [UNCOLORED] * graph.n
        outcome = marking_process(
            graph, h_nodes, colors, p, backoff, random.Random(seed + 1), RoundLedger()
        )
        assert outcome.initially_selected == len(selected)
        assert outcome.backed_off == len(selected) - len(expected)
        assert set(outcome.t_nodes) <= expected

    def test_some_back_off_and_some_survive(self):
        # One fixed case where the rule does both, so the oracle check
        # above is never vacuous on every example.
        graph = random_regular_graph(400, 3, seed=5)
        h_nodes = set(range(graph.n))
        selected = set(random.Random(3).sample(range(graph.n), 8))
        expected = _oracle_survivors(graph, selected, 5, h_nodes)
        assert 0 < len(expected) < len(selected)
        assert _without_close_pairs(graph, selected, 5, bytearray([1]) * graph.n) == expected

    def test_empty_h_draws_nothing_and_charges_the_rounds(self):
        graph = random_regular_graph(100, 3, seed=2)
        ledger = RoundLedger()
        rng = random.Random(1)
        outcome = marking_process(graph, set(), [UNCOLORED] * graph.n, 0.1, 6, rng, ledger)
        assert (outcome.initially_selected, outcome.t_nodes, outcome.marked) == (0, {}, set())
        assert ledger.total_rounds == 8
        assert rng.random() == random.Random(1).random()


def rng_after(seed: int, draws: int) -> tuple:
    """The state of ``random.Random(seed)`` after ``draws`` calls of
    ``random()``."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    return rng.getstate()


class TestEntropyContract:
    """Phase (4) draws its coins as one ``rng.randbytes(8k)`` block; the
    digests pinned elsewhere hold only while that block decodes to exactly
    the ``k`` values ``random()`` would have returned and leaves the
    generator where those calls leave it.  A CPython change to either
    fails here first."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20181, 2**40 + 3])
    @pytest.mark.parametrize("warmup", [0, 1, 3, 625])
    @pytest.mark.parametrize("k", [1, 2, 5, 312, 313, 1000])
    def test_block_equals_random_calls(self, seed, warmup, k):
        block_rng, call_rng = random.Random(seed), random.Random(seed)
        for rng in (block_rng, call_rng):
            # Earlier draws of several kinds put the generator mid-state.
            for i in range(warmup):
                (rng.random, lambda: rng.getrandbits(7), lambda: rng.randrange(1000))[i % 3]()
        assert _draws(block_rng.randbytes(8 * k)) == [call_rng.random() for _ in range(k)]
        assert block_rng.getstate() == call_rng.getstate()
        assert block_rng.random() == call_rng.random()

    def test_empty_block(self):
        rng = random.Random(3)
        assert _draws(rng.randbytes(0)) == []
        assert rng.getstate() == random.Random(3).getstate()
