"""Tests for the incremental-coloring engine (graph streams).

The contract under test: any sequence of accepted insert/delete ops
keeps :class:`repro.core.incremental.IncrementalColoring` *valid* —
bit-equivalent in validity to a fresh solve of the current graph (both
pass :func:`validate_coloring` against their palettes) — while rejected
ops raise typed errors and leave the engine untouched.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harness import carve_matching
from repro.api import SolverConfig, solve, solve_incremental
from repro.core.incremental import IncrementalColoring
from repro.errors import (
    ConflictingUpdateError,
    DeltaChangeError,
    EdgeAlreadyPresentError,
    EdgeNotPresentError,
)
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_coloring


def updatable_instance(n=48, delta=4, slack=6, seed=0):
    """A random Δ-regular graph minus a matching, solved: inserting a
    matching edge back keeps Δ (both endpoints have degree slack)."""
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, slack)
    base = full.apply_updates(removed=matching)
    return base, matching, solve(base, seed=seed)


class TestEngineBasics:
    def test_conflict_free_insert_recolors_nothing(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        u, v = next(e for e in matching if result.colors[e[0]] != result.colors[e[1]])
        outcome = engine.insert_edge(u, v)
        assert outcome.conflicts == 0
        assert outcome.recolored_count == 0
        assert not outcome.full_resolve
        assert engine.graph.has_edge(u, v)

    def test_delete_never_conflicts(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        u, v = next(base.edges())
        outcome = engine.delete_edge(u, v)
        assert outcome.conflicts == 0
        assert outcome.recolored_count == 0
        assert not engine.graph.has_edge(u, v)

    def test_conflicting_insert_is_repaired_locally(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        colors = engine.colors
        slack = sorted({x for e in matching for x in e})
        pair = next(
            (a, b)
            for i, a in enumerate(slack)
            for b in slack[i + 1:]
            if colors[a] == colors[b] and not base.has_edge(a, b)
        )
        outcome = engine.insert_edge(*pair)
        assert outcome.conflicts == 1
        assert not outcome.full_resolve
        assert outcome.recolored_count >= 1
        assert sum(outcome.repair_modes.values()) >= 1
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)

    def test_brooks_rung_fires_when_greedy_cannot(self):
        # Search a small seed range for an insert whose uncolored endpoint
        # has no free color: the Theorem 5 token walk (not greedy) must
        # repair it without a full re-solve.
        for seed in range(25):
            base, matching, result = updatable_instance(seed=seed)
            colors = list(result.colors)
            slack = sorted({x for e in matching for x in e})
            for i, a in enumerate(slack):
                for b in slack[i + 1:]:
                    if colors[a] != colors[b] or base.has_edge(a, b):
                        continue
                    engine = IncrementalColoring.from_result(
                        base, result, validate=True
                    )
                    outcome = engine.insert_edge(a, b)
                    if outcome.full_resolve or not outcome.repair_modes:
                        continue
                    if set(outcome.repair_modes) - {"greedy"}:
                        validate_coloring(
                            engine.graph, engine.colors, max_colors=engine.palette
                        )
                        assert outcome.max_repair_radius >= 1
                        return
        pytest.fail("no insert exercised the Brooks repair rung")

    def test_batch_update_shares_conflict_endpoints(self):
        base, matching, result = updatable_instance(slack=8)
        engine = IncrementalColoring.from_result(base, result, validate=True)
        outcome = engine.batch_update(added=matching[:4], removed=[next(base.edges())])
        assert outcome.edges_added == 4 and outcome.edges_removed == 1
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)
        # minimality: never more uncolored nodes than conflicts
        assert outcome.recolored_count <= max(
            1, outcome.conflicts * (engine.palette + 1)
        )

    def test_totals_accumulate(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        engine.insert_edge(*matching[0])
        engine.delete_edge(*matching[0])
        assert engine.totals["ops"] == 2
        assert engine.totals["edges_added"] == 1
        assert engine.totals["edges_removed"] == 1


class TestTypedRejections:
    def test_delete_nonexistent_edge(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        u, v = matching[0]  # carved out, so currently absent
        before = engine.colors
        with pytest.raises(EdgeNotPresentError):
            engine.delete_edge(u, v)
        assert engine.graph is base and engine.colors == before
        assert engine.totals["ops"] == 0

    def test_insert_existing_edge(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        u, v = next(base.edges())
        with pytest.raises(EdgeAlreadyPresentError):
            engine.insert_edge(u, v)
        with pytest.raises(EdgeAlreadyPresentError):
            # duplicated within one batch
            engine.batch_update(added=[matching[0], matching[0]])
        assert engine.graph is base

    def test_double_delete_in_one_batch(self):
        # Both copies name a *present* edge, so per-edge presence checks
        # pass — the batch-level dedup must reject with the typed error,
        # in either key orientation, leaving the engine bit-identical.
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        u, v = next(base.edges())
        before = engine.colors
        for second in [(u, v), (v, u)]:
            with pytest.raises(EdgeNotPresentError):
                engine.batch_update(removed=[(u, v), second])
        assert engine.graph is base
        assert engine.colors == before
        assert engine.totals["ops"] == 0

    def test_add_and_remove_same_key_in_one_batch(self):
        # Neither an insert nor a delete: must be the dedicated typed
        # error, not a misleading EdgeAlreadyPresentError.
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        u, v = next(base.edges())
        before = engine.colors
        with pytest.raises(ConflictingUpdateError):
            engine.batch_update(added=[(u, v)], removed=[(u, v)])
        with pytest.raises(ConflictingUpdateError):
            # reversed orientation names the same undirected key
            engine.batch_update(added=[(v, u)], removed=[(u, v)])
        with pytest.raises(ConflictingUpdateError):
            # the conflict wins even when the key is absent from the
            # graph — batch self-consistency dominates presence checks
            engine.batch_update(added=[matching[0]], removed=[matching[0]])
        assert engine.graph is base and engine.colors == before
        assert engine.totals["ops"] == 0

    def test_mixed_valid_invalid_batch_rejected_atomically(self):
        # A batch with three fine edges and one bad one must reject as a
        # whole — no partial application, engine state bit-identical.
        base, matching, result = updatable_instance(slack=6)
        engine = IncrementalColoring.from_result(base, result)
        before = engine.colors
        edges_before = set(base.edges())
        with pytest.raises(EdgeNotPresentError):
            engine.batch_update(
                added=matching[:3], removed=[matching[3]]  # absent: carved out
            )
        with pytest.raises(EdgeAlreadyPresentError):
            engine.batch_update(added=matching[:3] + [next(base.edges())])
        assert engine.graph is base
        assert set(engine.graph.edges()) == edges_before
        assert engine.colors == before
        assert engine.totals["ops"] == 0

    def test_dynamic_backend_rejections_leave_state_untouched(self):
        # Deltas apply in place, where a sloppy implementation could
        # leave a half-applied delta behind — after accepted ops too.
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result)
        u, v = next(base.edges())
        before = engine.colors
        edges_before = set(engine.graph.edges())
        for raiser in [
            lambda: engine.batch_update(removed=[(u, v), (v, u)]),
            lambda: engine.batch_update(added=[(u, v)], removed=[(u, v)]),
            lambda: engine.batch_update(added=matching[:2] + [(u, v)]),
            lambda: engine.delete_edge(*matching[0]),
        ]:
            with pytest.raises(
                (EdgeNotPresentError, EdgeAlreadyPresentError, ConflictingUpdateError)
            ):
                raiser()
        assert engine.graph is base
        assert set(engine.graph.edges()) == edges_before
        assert engine.colors == before
        assert engine.totals["ops"] == 0
        engine.insert_edge(*matching[1])
        head, colors = engine.graph, engine.colors
        with pytest.raises(EdgeAlreadyPresentError):
            engine.batch_update(added=[matching[2], matching[1]])
        assert engine.graph is head and engine.colors == colors

    def test_dynamic_backend_delta_change_rejected_exactly(self):
        # allow_resolve=False: the Δ-move check runs before mutation, so
        # rejection is exact.
        graph = random_regular_graph(24, 4, seed=1)
        result = solve(graph, seed=1)
        engine = IncrementalColoring.from_result(
            graph, result, allow_resolve=False
        )
        nonedge = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        before = engine.colors
        with pytest.raises(DeltaChangeError):
            engine.insert_edge(*nonedge)
        assert engine.graph is graph
        assert set(engine.graph.edges()) == set(graph.edges())
        assert engine.colors == before and engine.delta == 4

    def test_delta_raising_insert_rejected_without_resolve(self):
        # Every node of a Δ-regular graph is at degree Δ: any insert
        # raises Δ and must be rejected when re-solves are disallowed.
        graph = random_regular_graph(24, 4, seed=1)
        result = solve(graph, seed=1)
        engine = IncrementalColoring.from_result(
            graph, result, allow_resolve=False
        )
        nonedge = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        with pytest.raises(DeltaChangeError):
            engine.insert_edge(*nonedge)
        assert engine.graph is graph
        assert engine.delta == 4 and engine.palette == result.palette


class TestFullResolveFallback:
    def test_delta_change_triggers_resolve(self):
        graph = random_regular_graph(24, 4, seed=1)
        result = solve(graph, seed=1)
        engine = IncrementalColoring.from_result(graph, result, validate=True)
        nonedge = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        outcome = engine.insert_edge(*nonedge)
        assert outcome.full_resolve
        assert outcome.resolve_reason.startswith("delta")
        assert engine.delta == 5
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)

    def test_repair_stall_falls_back_to_resolve(self):
        # K4 minus an edge is Δ-colorable (Δ=3); inserting the missing
        # edge completes K4, which is not — Δ stays 3, repair must stall,
        # and the resolve rung re-colors with the component optimum χ=4.
        graph = complete_graph(4).apply_updates(removed=[(0, 1)])
        result = solve(graph, algorithm="components", seed=0)
        assert result.palette == 3
        engine = IncrementalColoring.from_result(
            graph, result, algorithm="deterministic", validate=True
        )
        outcome = engine.insert_edge(0, 1)
        assert outcome.full_resolve
        assert engine.palette == 4
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)

    def test_repair_stall_rejected_after_mutation_rolls_back_exactly(self):
        # The stall is found only after the delta applied in place; with
        # re-solves disallowed the undo log must restore the graph down
        # to the identity of the object the engine hands out.
        graph = complete_graph(4).apply_updates(removed=[(0, 1)])
        result = solve(graph, algorithm="components", seed=0)
        engine = IncrementalColoring.from_result(
            graph, result, algorithm="deterministic", allow_resolve=False
        )
        before = engine.colors
        with pytest.raises(DeltaChangeError, match="repair-stalled"):
            engine.insert_edge(0, 1)
        assert engine.graph is graph
        assert engine.colors == before and engine.totals["ops"] == 0
        assert not engine._graph.has_edge(0, 1)

    def test_components_seed_skips_repair_ladder(self):
        # `components` results carry per-component χ palettes the repair
        # machinery cannot maintain; conflicting updates must resolve.
        base, matching, _ = updatable_instance()
        result = solve(base, algorithm="components", seed=0)
        engine = IncrementalColoring.from_result(base, result, validate=True)
        colors = engine.colors
        slack = sorted({x for e in matching for x in e})
        pair = next(
            (a, b)
            for i, a in enumerate(slack)
            for b in slack[i + 1:]
            if colors[a] == colors[b] and not base.has_edge(a, b)
        )
        outcome = engine.insert_edge(*pair)
        assert outcome.full_resolve
        assert outcome.resolve_reason == "algorithm-unsupported"


class TestDirtyRegion:
    """The dirty-region tracking behind the O(vol(region)) validation."""

    def test_dirty_region_covers_changes_and_added_endpoints(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        before = engine.colors
        u, v = matching[0]
        engine.insert_edge(u, v)
        after = engine.colors
        dirty = set(engine.last_dirty_region)
        changed = {w for w in range(base.n) if before[w] != after[w]}
        assert changed <= dirty
        assert {u, v} <= dirty

    def test_full_resolve_reports_no_region(self):
        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        # deleting edges at one node lowers Δ -> full re-solve
        victim = next(v for v in range(base.n) if base.degree(v) == engine.delta)
        for w in list(base.adj[victim])[1:]:
            engine.delete_edge(victim, w)
        if engine.totals["full_resolves"]:
            assert engine.last_dirty_region is None

    def test_region_validation_stream_matches_full_validation(self):
        """A long mixed stream with per-op region validation on: the end
        state must also pass the full O(n + m) validator — region checks
        never let an invalid intermediate state survive silently."""
        base, matching, result = updatable_instance(n=64, delta=4, slack=8)
        engine = IncrementalColoring.from_result(base, result, validate=True)
        for i, (u, v) in enumerate(matching):
            engine.insert_edge(u, v)
            if i % 2:
                engine.delete_edge(u, v)
        validate_coloring(
            engine.graph, engine.colors, max_colors=engine.palette or None
        )

    def test_engine_region_validation_catches_bad_repair(self, monkeypatch):
        """If the repair rung produced a conflicting color, the dirty
        region contains that node, so region validation must catch it."""
        from repro.errors import ColoringError

        base, matching, result = updatable_instance()
        engine = IncrementalColoring.from_result(base, result, validate=True)
        u, v = next(
            e for e in matching if result.colors[e[0]] == result.colors[e[1]]
        )

        def sabotage(graph, colors, uncolor, outcome):
            for w in uncolor:
                colors[w] = colors[
                    next(x for x in graph.adj[w] if colors[x] != 0)
                ]

        monkeypatch.setattr(engine, "_repair", sabotage)
        with pytest.raises(ColoringError):
            engine.insert_edge(u, v)

    def test_facade_region_validation_catches_bad_repair(self, monkeypatch):
        from repro.core import incremental as inc_mod
        from repro.errors import ColoringError

        base, matching, result = updatable_instance()
        u, v = next(
            e for e in matching if result.colors[e[0]] == result.colors[e[1]]
        )

        def sabotage(self, graph, colors, uncolor, outcome):
            for w in uncolor:
                colors[w] = colors[
                    next(x for x in graph.adj[w] if colors[x] != 0)
                ]

        monkeypatch.setattr(inc_mod.IncrementalColoring, "_repair", sabotage)
        with pytest.raises(ColoringError):
            solve_incremental(base, result, edges_added=[(u, v)])


class TestSolveIncrementalFacade:
    def test_returns_chainable_child(self):
        base, matching, result = updatable_instance()
        first = solve_incremental(base, result, edges_added=[matching[0]])
        assert first.graph.has_edge(*matching[0])
        assert first.result.stats["incremental"]["op"] == "batch"
        validate_coloring(
            first.graph, list(first.result.colors),
            max_colors=first.result.palette,
        )
        second = solve_incremental(
            first.graph, first.result,
            edges_added=[matching[1]], edges_removed=[matching[0]],
        )
        assert not second.graph.has_edge(*matching[0])
        assert second.graph.has_edge(*matching[1])

    def test_validate_flag_honoured(self):
        base, matching, result = updatable_instance()
        out = solve_incremental(
            base, result, edges_added=[matching[0]],
            config=SolverConfig(validate=False),
        )
        assert out.result.n == base.n

    def test_typed_errors_pass_through(self):
        base, matching, result = updatable_instance()
        with pytest.raises(EdgeNotPresentError):
            solve_incremental(base, result, edges_removed=[matching[0]])


def assert_engine_matches_references(engine, n, edges, model_rows) -> None:
    """The engine's graph against a from-scratch build and a naive
    list-of-rows model (CSR bit for bit); its coloring against the
    validator."""
    scratch = Graph(n, sorted(edges))
    graph = engine.graph
    assert set(graph.edges()) == set(scratch.edges())
    assert graph.degrees() == scratch.degrees()
    assert engine.delta == scratch.max_degree()
    offsets, indices = graph.csr()
    assert list(indices) == [w for row in model_rows for w in row]
    assert list(offsets[1:]) == list(
        itertools.accumulate(len(row) for row in model_rows)
    )
    validate_coloring(scratch, engine.colors, max_colors=engine.palette)


def apply_to_rows(rows, added=(), removed=()) -> None:
    for u, v in removed:
        rows[u].remove(v)
        rows[v].remove(u)
    for u, v in added:
        rows[u].append(v)
        rows[v].append(u)


class TestDynamicBackend:
    """The one in-place update path, pinned to references."""

    def test_engine_adopts_the_graph_in_place(self):
        from repro.graphs.dynamic import DynamicGraph

        base, matching, result = updatable_instance(slack=6)
        engine = IncrementalColoring.from_result(base, result)
        # Adopted at construction; the caller's graph is the snapshot
        # until the first accepted op and is never written to.
        assert isinstance(engine._graph, DynamicGraph)
        assert engine.graph is base
        csr_before = tuple(bytes(buf) for buf in base.csr())
        for u, v in matching[:3]:
            engine.insert_edge(u, v)
        assert engine.graph is not base
        assert tuple(bytes(buf) for buf in base.csr()) == csr_before
        # the public view stays an immutable Graph
        assert not isinstance(engine.graph, DynamicGraph)

    def test_one_shot_facade_stays_immutable(self):
        from repro.graphs.dynamic import DynamicGraph

        base, matching, result = updatable_instance()
        out = solve_incremental(base, result, edges_added=[matching[0]])
        assert not isinstance(out.graph, DynamicGraph)

    def test_backends_pinned_identical_on_stream(self):
        """The legacy ``backend`` values are accepted and ignored: each
        engine processes the same mixed stream identically (CSR bit for
        bit, colorings, totals), and matches the references throughout."""
        base, matching, result = updatable_instance(n=64, delta=4, slack=8)
        engines = [
            IncrementalColoring.from_result(
                base, result, backend=backend, validate=True
            )
            for backend in ("auto", "dynamic", "immutable")
        ]
        edges = set(base.edges())
        rows = [list(base.neighbors(v)) for v in range(base.n)]
        for i, (u, v) in enumerate(matching):
            outcomes = [engine.insert_edge(u, v).as_dict() for engine in engines]
            for payload in outcomes:
                payload.pop("wall_time_s")
                payload.pop("rung_wall_s")
            assert outcomes[0] == outcomes[1] == outcomes[2]
            edges.add((u, v))
            apply_to_rows(rows, added=[(u, v)])
            if i % 2:
                for engine in engines:
                    engine.delete_edge(u, v)
                edges.discard((u, v))
                apply_to_rows(rows, removed=[(u, v)])
            first = engines[0]
            for engine in engines[1:]:
                assert engine.colors == first.colors
                assert engine.graph.csr() == first.graph.csr()
                assert engine.palette == first.palette
            assert_engine_matches_references(first, base.n, edges, rows)
        assert engines[0].totals == engines[1].totals == engines[2].totals

    def test_dynamic_backend_full_resolve_path(self):
        # Δ-raising insert: resolve rung, state consistent afterwards
        # and further ops still work.
        graph = random_regular_graph(24, 4, seed=1)
        result = solve(graph, seed=1)
        engine = IncrementalColoring.from_result(graph, result, validate=True)
        nonedge = next(
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if not graph.has_edge(u, v)
        )
        outcome = engine.insert_edge(*nonedge)
        assert outcome.full_resolve and engine.delta == 5
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)
        engine.delete_edge(*nonedge)
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_random_stream_backends_agree(data):
    """Property: across any accepted op stream, engines built with each
    legacy ``backend`` value agree bit for bit (graph CSR, coloring, Δ,
    palette) — the argument selects nothing — and match a from-scratch
    build, the naive row model and the validator."""
    n = data.draw(st.integers(min_value=4, max_value=12), label="n")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(
            st.sampled_from(all_pairs), unique=True, min_size=1,
            max_size=len(all_pairs),
        ),
        label="edges",
    )
    graph = Graph(n, edges)
    result = solve(graph, algorithm="auto", seed=0)
    imm = IncrementalColoring.from_result(
        graph, result, backend="immutable", validate=True
    )
    dyn = IncrementalColoring.from_result(
        graph, result, backend="dynamic", validate=True
    )
    reference = set(edges)
    rows = [list(graph.neighbors(v)) for v in range(n)]
    ops = data.draw(st.integers(min_value=1, max_value=6), label="ops")
    for _ in range(ops):
        present = sorted(reference)
        absent = sorted(set(all_pairs) - reference)
        do_insert = data.draw(st.booleans(), label="insert?") if absent else False
        if not present:
            do_insert = True
        if do_insert and absent:
            edge = data.draw(st.sampled_from(absent), label="edge")
            imm.insert_edge(*edge)
            dyn.insert_edge(*edge)
            reference.add(edge)
            apply_to_rows(rows, added=[edge])
        elif present:
            edge = data.draw(st.sampled_from(present), label="edge")
            imm.delete_edge(*edge)
            dyn.delete_edge(*edge)
            reference.discard(edge)
            apply_to_rows(rows, removed=[edge])
        assert imm.colors == dyn.colors
        assert imm.graph.csr() == dyn.graph.csr()
        assert imm.delta == dyn.delta and imm.palette == dyn.palette
        assert_engine_matches_references(dyn, n, reference, rows)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_stream_stays_valid(data):
    """Any accepted op sequence keeps the engine bit-equivalent in
    validity to a fresh solve: after every op the maintained coloring
    validates against the maintained palette, exactly as a fresh solve's
    output validates against its palette — and the maintained edge set
    matches the reference exactly."""
    n = data.draw(st.integers(min_value=4, max_value=14), label="n")
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(
            st.sampled_from(all_pairs), unique=True, min_size=1,
            max_size=len(all_pairs),
        ),
        label="edges",
    )
    graph = Graph(n, edges)
    result = solve(graph, algorithm="auto", seed=0)
    engine = IncrementalColoring.from_result(graph, result, validate=True)
    reference = set(edges)
    ops = data.draw(st.integers(min_value=1, max_value=8), label="ops")
    for _ in range(ops):
        present = sorted(reference)
        absent = sorted(set(all_pairs) - reference)
        do_insert = data.draw(st.booleans(), label="insert?") if absent else False
        if not present:
            do_insert = True
        if do_insert and absent:
            edge = data.draw(st.sampled_from(absent), label="edge")
            engine.insert_edge(*edge)
            reference.add(edge)
        elif present:
            edge = data.draw(st.sampled_from(present), label="edge")
            engine.delete_edge(*edge)
            reference.discard(edge)
        # engine.validate already re-validated; check the stronger claims:
        assert set(engine.graph.edges()) == reference
        validate_coloring(engine.graph, engine.colors, max_colors=engine.palette)
        fresh = solve(engine.graph, algorithm="auto", seed=0)
        validate_coloring(engine.graph, list(fresh.colors), max_colors=fresh.palette)
