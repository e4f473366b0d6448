"""Tests for the updatable CSR (:class:`repro.graphs.dynamic.DynamicGraph`).

The load-bearing contract: after any sequence of deltas, a dynamic
graph's compacted ``csr()`` is **bit-identical** to a naive list-of-rows
model of the same deltas (a removal drops the neighbour and keeps the
row's order, an insertion appends), and its edge set equals a
from-scratch :class:`repro.graphs.Graph` build of the current edges.
Neither reference shares code with the graph under test.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.dynamic import MIN_ROW_SLOTS, DynamicGraph
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph


class RowModel:
    """The reference: one Python list per row, updated the naive way."""

    def __init__(self, graph: Graph):
        self.rows = [list(graph.neighbors(v)) for v in range(graph.n)]

    def apply(self, added=(), removed=()) -> None:
        for u, v in removed:
            self.rows[u].remove(v)
            self.rows[v].remove(u)
        for u, v in added:
            self.rows[u].append(v)
            self.rows[v].append(u)

    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, row in enumerate(self.rows) for v in row if u < v}


def assert_matches_model(dyn: DynamicGraph, model: RowModel) -> None:
    offsets, indices = dyn.csr()
    rows = model.rows
    assert list(offsets) == [0] + list(
        itertools.accumulate(len(row) for row in rows)
    ), "offsets diverged from the row model"
    assert list(indices) == [w for row in rows for w in row], (
        "indices diverged from the row model"
    )
    assert dyn.num_edges == len(model.edges())
    assert dyn.max_degree() == max((len(row) for row in rows), default=0)
    scratch = Graph(len(rows), sorted(model.edges()))
    assert set(dyn.edges()) == set(scratch.edges())
    assert dyn.degrees() == scratch.degrees()


def assert_csr_identical(dyn: DynamicGraph, ref: Graph) -> None:
    ro, ri = ref.csr()
    do, di = dyn.csr()
    assert do == ro, "offsets diverged from the immutable reference"
    assert di == ri, "indices diverged from the immutable reference"
    assert dyn.num_edges == ref.num_edges
    assert dyn.max_degree() == ref.max_degree()


def random_stream(rng, reference: set, n, ops, batch_max=3):
    """A valid update stream: per step, disjoint added/removed lists."""
    steps = []
    current = set(reference)
    for _ in range(ops):
        added, removed = [], []
        for _ in range(rng.randrange(1, batch_max + 1)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in current and key not in removed and key not in added:
                removed.append(key)
                current.discard(key)
            elif key not in current and key not in added and key not in removed:
                added.append(key)
                current.add(key)
        steps.append((added, removed))
    return steps


class TestConstruction:
    def test_from_graph_is_bit_identical(self):
        graph = random_regular_graph(64, 6, seed=3)
        dyn = DynamicGraph.from_graph(graph)
        assert_csr_identical(dyn, graph)
        assert dyn.degrees() == graph.degrees()
        assert dyn.adj == graph.adj
        assert dyn.min_degree() == graph.min_degree()

    def test_constructor_matches_graph_constructor(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        dyn = DynamicGraph(5, edges)
        ref = Graph(5, edges)
        assert_csr_identical(dyn, ref)
        # node 4 is isolated
        assert dyn.degree(4) == 0 and list(dyn.neighbors_csr(4)) == []

    def test_adoption_is_exact_size_and_growth_pads(self):
        graph = random_regular_graph(32, 4, seed=0)
        dyn = DynamicGraph.from_graph(graph)
        # Adoption: exact row sizes, and the adopted graph is the cache.
        stats = dyn.storage_stats()
        assert stats["data_slots"] == stats["live_slots"] == 2 * graph.num_edges
        assert stats["holes"] == 0 and stats["relocations"] == 0
        assert dyn.snapshot() is graph
        assert dyn.csr()[1] is graph.csr()[1]
        # The first insert into a row relocates it to a padded row.
        u, v = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        dyn.insert_edge(u, v)
        stats = dyn.storage_stats()
        assert stats["relocations"] == 2 and stats["holes"] == 8
        for w in (u, v):
            cap = dyn._caps[w]
            assert cap > dyn.degree(w) and cap & (cap - 1) == 0
        assert list(dyn.neighbors_csr(u))[-1] == v
        # Compaction pads every row to a power of two with a free slot.
        dyn._compact_storage()
        stats = dyn.storage_stats()
        assert stats["holes"] == 0 and stats["data_slots"] == sum(dyn._caps)
        for w in range(dyn.n):
            cap = dyn._caps[w]
            assert cap >= max(MIN_ROW_SLOTS, dyn.degree(w) + 1)
            assert cap & (cap - 1) == 0
        assert_csr_identical(dyn, graph.apply_updates(added=[(u, v)]))


class TestInPlaceUpdates:
    def test_insert_and_delete_roundtrip(self):
        graph = random_regular_graph(48, 4, seed=1)
        dyn = DynamicGraph.from_graph(graph)
        pair = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        dyn.insert_edge(*pair)
        assert dyn.has_edge(*pair) and dyn.num_edges == graph.num_edges + 1
        dyn.delete_edge(*pair)
        assert_csr_identical(dyn, graph)

    def test_deletion_preserves_row_order(self):
        # Deleting 1 from 0's row [1, 2, 3] must leave [2, 3], not [3, 2]:
        # downstream seeded algorithms iterate rows in insertion order.
        dyn = DynamicGraph(4, [(0, 1), (0, 2), (0, 3)])
        dyn.delete_edge(0, 1)
        assert list(dyn.neighbors_csr(0)) == [2, 3]

    def test_validation_matches_apply_updates_messages(self):
        dyn = DynamicGraph(4, [(0, 1)])
        with pytest.raises(GraphError, match="already present"):
            dyn.insert_edge(0, 1)
        with pytest.raises(GraphError, match="not present"):
            dyn.delete_edge(1, 2)
        with pytest.raises(GraphError, match="self-loop"):
            dyn.insert_edge(2, 2)
        with pytest.raises(GraphError, match="out of range"):
            dyn.insert_edge(0, 9)
        with pytest.raises(GraphError, match="removed twice"):
            dyn.apply_delta(removed=[(0, 1), (1, 0)])
        with pytest.raises(GraphError, match="both added and removed"):
            dyn.apply_delta(added=[(0, 1)], removed=[(0, 1)])
        # failed deltas leave no partial state behind
        assert dyn.num_edges == 1 and dyn.has_edge(0, 1)

    def test_relocation_grows_overfull_rows(self):
        dyn = DynamicGraph(64, [(0, 1)])
        for v in range(2, 40):
            dyn.insert_edge(0, v)
        assert dyn.degree(0) == 39
        assert dyn.relocations > 0
        assert sorted(dyn.neighbors_csr(0)) == list(range(1, 40))

    def test_compaction_triggers_and_preserves_content(self):
        rng = random.Random(7)
        n = 32
        dyn = DynamicGraph(n, [])
        model = RowModel(Graph(n, []))
        # Hammer a few rows so relocations pile up holes past the
        # half-buffer trigger.
        for step in random_stream(rng, set(), n, ops=400, batch_max=2):
            added, removed = step
            dyn.apply_delta(added=added, removed=removed)
            model.apply(added=added, removed=removed)
        assert dyn.compactions > 0, "stream never triggered a compaction"
        assert_matches_model(dyn, model)
        stats = dyn.storage_stats()
        assert stats["holes"] * 3 <= stats["data_slots"]

    def test_max_degree_histogram_tracks_deletions(self):
        dyn = DynamicGraph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert dyn.max_degree() == 3
        dyn.delete_edge(0, 1)
        assert dyn.max_degree() == 2
        dyn.delete_edge(0, 2)
        dyn.delete_edge(0, 3)
        assert dyn.max_degree() == 1
        dyn.delete_edge(4, 5)
        assert dyn.max_degree() == 0

    def test_delta_after_peeks_without_mutation(self):
        dyn = DynamicGraph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert dyn.delta_after([(1, 2)], []) == 3
        assert dyn.delta_after([(0, 4)], []) == 4
        assert dyn.delta_after([], [(0, 1)]) == 2
        assert dyn.delta_after([(1, 2)], [(0, 1)]) == 2
        # peeks never touch the graph
        assert dyn.max_degree() == 3 and dyn.num_edges == 4


class TestUndo:
    def test_undo_restores_bit_identical_state(self):
        graph = random_regular_graph(40, 4, seed=2)
        dyn = DynamicGraph.from_graph(graph)
        pair = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        edge = next(graph.edges())
        undo = dyn.apply_delta(added=[pair], removed=[edge], record_undo=True)
        dyn.undo_delta(undo)
        assert_csr_identical(dyn, graph)

    def test_undo_survives_interleaved_compaction(self):
        rng = random.Random(11)
        n = 24
        dyn = DynamicGraph(n, [(i, (i + 1) % n) for i in range(n)])
        for _ in range(200):
            ref = dyn.snapshot()
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if dyn.has_edge(u, v):
                undo = dyn.apply_delta(removed=[(u, v)], record_undo=True)
            else:
                undo = dyn.apply_delta(added=[(u, v)], record_undo=True)
            dyn.undo_delta(undo)
            assert_csr_identical(dyn, ref)
            # re-apply so the stream (and its relocations) still happen
            if ref.has_edge(u, v):
                dyn.apply_delta(removed=[(u, v)])
            else:
                dyn.apply_delta(added=[(u, v)])

    def test_undo_restores_the_cached_snapshot(self):
        graph = random_regular_graph(40, 4, seed=2)
        dyn = DynamicGraph.from_graph(graph)
        undo = dyn.apply_delta(removed=[next(graph.edges())], record_undo=True)
        assert dyn.snapshot() is not graph
        dyn.undo_delta(undo)
        # A rolled-back delta hands out the very graph it started from.
        assert dyn.snapshot() is graph
        assert dyn.csr() == graph.csr()


class TestSnapshot:
    def test_snapshot_is_immutable_and_detached(self):
        dyn = DynamicGraph(5, [(0, 1), (1, 2)])
        snap = dyn.snapshot()
        assert isinstance(snap, Graph) and not isinstance(snap, DynamicGraph)
        dyn.insert_edge(3, 4)
        # the earlier snapshot must not see the mutation
        assert not snap.has_edge(3, 4)
        assert dyn.snapshot().has_edge(3, 4)

    def test_snapshot_cached_until_mutation(self):
        dyn = DynamicGraph(5, [(0, 1)])
        assert dyn.snapshot() is dyn.snapshot()
        dyn.insert_edge(2, 3)
        first = dyn.snapshot()
        assert first is dyn.snapshot()

    def test_apply_updates_returns_plain_graph(self):
        dyn = DynamicGraph(5, [(0, 1)])
        child = dyn.apply_updates(added=[(1, 2)])
        assert child.has_edge(1, 2)
        assert not dyn.has_edge(1, 2), "immutable-style delta mutated the dynamic graph"


class TestCompactionTwins:
    def test_numpy_and_python_compaction_agree(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        dyn = DynamicGraph.from_graph(random_regular_graph(600, 6, seed=5))
        for step in random_stream(rng, set(dyn.snapshot().edges()), 600, ops=40):
            dyn.apply_delta(added=step[0], removed=step[1])
        off_np, idx_np = dyn._compact_numpy(np)
        off_py, idx_py = dyn._compact_python()
        assert off_np == off_py and idx_np == idx_py


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_streams_match_row_model(data):
    """Property: folding any valid update stream through DynamicGraph
    in place equals the naive row model, CSR bit for bit, and a
    from-scratch build of the current edge set — including after
    undo/redo of every step."""
    n = data.draw(st.integers(min_value=2, max_value=12), label="n")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)),
        label="edges",
    )
    dyn = DynamicGraph.from_graph(Graph(n, edges))
    model = RowModel(Graph(n, edges))
    current = set(edges)
    ops = data.draw(st.integers(min_value=1, max_value=10), label="ops")
    for _ in range(ops):
        present = sorted(current)
        absent = sorted(set(all_pairs) - current)
        added, removed = [], []
        if absent and data.draw(st.booleans(), label="insert?"):
            added = [data.draw(st.sampled_from(absent), label="edge")]
        elif present:
            removed = [data.draw(st.sampled_from(present), label="edge")]
        else:
            continue
        before = RowModel(dyn.snapshot())
        undo = dyn.apply_delta(added=added, removed=removed, record_undo=True)
        model.apply(added=added, removed=removed)
        assert_matches_model(dyn, model)
        dyn.undo_delta(undo)
        assert_matches_model(dyn, before)
        dyn.apply_delta(added=added, removed=removed)
        current.difference_update(removed)
        current.update(added)
        assert_matches_model(dyn, model)
        assert model.edges() == current
