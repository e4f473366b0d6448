"""Fast paths of the Theorem 3 solve vs their pure-Python twins.

Each fast path on the solve path — an entry point of the native kernel
(``repro/kernel.c``) — keeps its Python twin as the fallback (reprolint
RPL007); these tests pin the pairs to each other on shapes chosen to hit
their edge cases.  Kernel tests compare a call with the kernel loaded
against the same call under the ``python_twins`` fixture (every entry
point off, as on a box without a C compiler):

* ``Graph.is_connected`` — the kernel's ``level_bfs`` from node 0 vs the
  component scan: disconnected graphs, isolated nodes, deep graphs;
* ``validate_coloring`` — the kernel's ``validate`` verdict matches the
  Python pass, and the ``ColoringError.violations`` a caller sees are the
  Python pass's: proper colorings, monochromatic edges, uncolored nodes
  (``allow_partial`` both ways), out-of-palette colors, ``max_colors``
  None, colors beyond a C int, negative and non-int colors, a length
  mismatch, ``array('i')`` and ``ColorStore`` arguments;
* ``bfs_distances`` / ``distance_layers`` — the kernel's ``level_bfs`` vs
  the per-visit loops: rrg Δ=3..8, tori, hypercubes, nice, sparse and
  disconnected graphs, paths deeper than 64 levels, ``max_depth`` 0, 1
  and None, duplicate and empty sources, ``allowed`` as ``None``, a set
  or a byte mask (sources outside it too), small and large reach, and
  out-of-range sources and ``allowed`` nodes (``IndexError`` on both);
* the H-boundary of phase 5 (the kernel's ``h_boundary`` /
  ``_boundary_python``) — empty, full, carved and random H, irregular
  graphs; the sets must match in iteration order too;
* ``DynamicGraph`` adoption (the kernel's ``adopt_rows`` /
  ``_adopt_rows_python``, both against the graph's own rows) — the
  empty graph, edgeless graphs, isolated nodes;
* ``Graph.edges`` and ``Graph.edge_pairs`` (the kernel's ``edge_pairs``
  / ``_edge_pairs_python``) — sparse and edgeless graphs, and a mutated
  ``DynamicGraph``;
* Linial's reduction round (the kernel's ``linial_round`` /
  ``_reduce_round_python``) — regular, sparse, edgeless and dense
  (q > 256) graphs from random colors, and every round of the schedule
  from the identity coloring on the families above;
* ``detect_dccs`` — the native C pass (``dcc_detect``: ball, tree
  reject, 2-core peel, Hopcroft–Tarjan block selection, adoption,
  resumable output) vs its lazy per-ball Python twin, on tori,
  hypercubes, rrg Δ=3..8, planted 4- and 5-cycles and theta graphs,
  girth-9 graphs, Gallai trees (K4/K5 and odd-cycle blocks), chains of
  blocks through cut vertices, wheels, K_n minus an edge, disconnected
  graphs, ``active=`` subsets (per-component sweeps on one scratch),
  small ``n`` and a one-DCC output buffer, with every selection checked
  against Definition 9 independently;
* the three whole-graph scans on rrg Δ=3..8, a torus, a hypercube, a
  nice graph, sparse graphs and graphs with 0 and 1 nodes;
* the (deg+1)-list engines — the native class sweep and trial round
  (``class_sweep`` / ``trial_round`` in ``repro/kernel.c``) vs their
  twins (``_class_sweep_python`` / ``_python_trial_round``) on rrg
  Δ=3..8, tori, hypercubes and nice graphs, with random partial
  precolorings (some above ``max_colors``), palettes from Δ+1 to 3Δ,
  proper and improper base colorings, 20-node and empty layers, whole
  layer passes and infeasible nodes: colors, stats, ledger and the rng
  tail must all match;
* phase (9)'s degree-list instances — ``ColorWorkspace.degree_list``
  with the kernel's ``degree_list_surplus`` vs the twin loop of
  ``color_against_outside``: the B0 components of real solves (rrg Δ=8,
  n=2048), surplus at the first, a middle and the last member, tight
  instances the kernel must hand back (an even cycle with equal 2-lists,
  K4 minus an edge, a theta, a wheel, a Gallai tree with feasible
  lists), an infeasible one (colors untouched), Δ > 64, stale member
  colors, uncolored outside neighbours, two adjacent components in one
  call and out-of-range members (``IndexError``, nothing written): same
  colors, same error text, and the kernel hands back exactly the
  components outside the twin's surplus case;
* phase (4)'s selection and backoff (the kernel's ``marking_select`` /
  ``_select_python``, one block of ``rng.randbytes`` each) — rrg Δ=3/4,
  girth-9, torus and sparse graphs; full, random and sparse H (H a few
  balls of a large graph, so its set order is not ascending); p 0, the
  preset, 0.25 and 1; backoff 5-8; empty H; colored nodes in and out of
  H; out-of-range nodes, alone and with a colored node: the same
  survivors, counts, T-nodes, colors and rng tail, or the same error
  with nothing drawn or written.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dcc as dcc_mod
import repro.core.degree_choosable as degree_choosable_mod
import repro.core.happiness as happiness_mod
import repro.core.marking as marking_mod
import repro.primitives.linial as linial_mod
from repro import native
from repro.api import solve
from repro.core.colorstore import ColorStore
from repro.core.degree_choosable import color_against_outside
from repro.core.layering import color_layers_in_reverse
from repro.core.marking import default_selection_probability, marking_process
from repro.errors import AlgorithmContractError, ColoringError, InfeasibleListColoringError
from repro.graphs import bfs as bfs_mod
from repro.graphs import dynamic as dynamic_mod
from repro.graphs import graph as graph_mod
from repro.graphs import validation as validation_mod
from repro.graphs.generators import (
    cycle_graph,
    disjoint_union,
    high_girth_regular_graph,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import is_degree_choosable_component
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import (
    ColorWorkspace,
    list_coloring_deterministic,
    list_coloring_hybrid,
    list_coloring_random,
)

SIZES = [40, 127, 128, 255, 256, 511, 512, 1100]
FAST = settings(max_examples=25, deadline=None)


def test_thresholds_are_the_measured_ones():
    # The kernel takes every size: the one measured knob left is how
    # bfs_distances lists a small reach, and no size gate remains.
    assert bfs_mod.SMALL_REACH == 8
    for module in (graph_mod, validation_mod, happiness_mod, dynamic_mod):
        assert not [name for name in vars(module) if "VECTOR_MIN" in name]


def sparse_graph(n: int, seed: int, avg_degree: float) -> Graph:
    """Irregular, often disconnected, usually with isolated nodes."""
    return random_graph_with_max_degree(n, 6, avg_degree, seed=seed)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls of every kernel entry point by name (proof the
    kernel path ran); empty on a box where the kernel did not load."""
    real = native.kernel
    calls = Counter()

    def counted(name):
        function = real(name)
        if function is None:
            return None

        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    monkeypatch.setattr(native, "kernel", counted)
    return calls


KERNEL_LOADED = native.kernel("level_bfs") is not None


class TestIsConnected:
    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([0.5, 1.8, 3.0, 5.0]),
    )
    def test_twins_agree(self, n, seed, avg, python_twins):
        graph = sparse_graph(n, seed, avg)
        expected = graph._is_connected_python()
        assert expected == (len(graph.connected_components()) == 1)
        assert graph.is_connected() == expected
        assert python_twins(graph.is_connected) == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_isolated_node_disconnects(self, n, python_twins):
        base = random_regular_graph(n, 4, seed=n)
        graph = Graph(base.n + 1, list(base.edges()))
        assert base.is_connected() and python_twins(base.is_connected)
        assert not graph.is_connected()
        assert not python_twins(graph.is_connected)

    def test_two_components(self, kernel_calls, python_twins):
        halves = [random_regular_graph(300, 5, seed=i) for i in range(2)]
        graph = disjoint_union(halves)
        assert not graph.is_connected()
        assert kernel_calls["level_bfs"] == KERNEL_LOADED
        assert not python_twins(graph.is_connected)

    @pytest.mark.parametrize("make", [cycle_graph, path_graph])
    def test_deep_graphs_fall_back(self, make, kernel_calls, python_twins):
        """Graphs far deeper than 64 levels: the kernel (which has no
        level cap) and the fallback component scan agree."""
        graph = make(3000)
        assert graph.is_connected()
        assert kernel_calls["level_bfs"] == KERNEL_LOADED
        assert python_twins(graph.is_connected)
        cuts = {(1499, 1500), (0, 2999)}
        split = Graph(3000, [e for e in graph.edges() if e not in cuts])
        assert not split.is_connected()
        assert not python_twins(split.is_connected)


def random_coloring(rng: random.Random, n: int, palette: int, defects: int):
    """A coloring over 0..palette+1 (so uncolored and out-of-palette
    entries occur) with ``defects`` extra random entries."""
    colors = [rng.randrange(1, palette + 1) for _ in range(n)]
    for _ in range(defects):
        colors[rng.randrange(n)] = rng.randrange(-1, palette + 2)
    return colors


def verdict(graph, colors, max_colors, allow_partial):
    """What :func:`validate_coloring` does: None when it accepts, else
    the exception's type name and its violations (or message)."""
    try:
        validation_mod.validate_coloring(
            graph, colors, max_colors=max_colors, allow_partial=allow_partial
        )
    except ColoringError as exc:
        return "ColoringError", exc.violations
    except Exception as exc:  # what the Python pass raises on odd colors
        return type(exc).__name__, str(exc)
    return None


def python_verdict(graph, colors, max_colors, allow_partial):
    try:
        validation_mod._validate_coloring_python(
            graph, colors, max_colors, allow_partial, max_violations=20
        )
    except ColoringError as exc:
        return exc.violations
    return None


class TestValidateColoring:
    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        defects=st.sampled_from([0, 1, 3, 50]),
        allow_partial=st.booleans(),
        capped=st.booleans(),
    )
    def test_twins_agree_and_messages_match(
        self, n, seed, defects, allow_partial, capped, python_twins
    ):
        rng = random.Random(seed)
        graph = sparse_graph(n, seed, 3.0)
        palette = graph.max_degree() + 1
        if defects:
            colors = random_coloring(rng, n, palette, defects)
        else:  # a proper greedy coloring: the valid case
            colors = [0] * n
            for v in range(n):
                taken = {colors[u] for u in graph.neighbors(v)}
                colors[v] = min(c for c in range(1, palette + 1) if c not in taken)
        max_colors = palette if capped else None
        expected = python_verdict(graph, colors, max_colors, allow_partial)
        kernel = native.kernel("validate")
        if kernel is not None:
            assert validation_mod._passes_kernel(
                kernel, graph, colors, max_colors, allow_partial
            ) == (expected is None)
        args = (graph, colors, max_colors, allow_partial)
        assert verdict(*args) == python_twins(verdict, *args) == (
            None if expected is None else ("ColoringError", expected)
        )

    def test_monochromatic_edge_message_is_the_python_one(self):
        graph = random_regular_graph(1024, 8, seed=3)
        colors = [0] * graph.n
        for v in range(graph.n):
            taken = {colors[u] for u in graph.neighbors(v)}
            colors[v] = min(c for c in range(1, 10) if c not in taken)
        validation_mod.validate_coloring(graph, colors, max_colors=9)
        u = 5
        v = graph.neighbors(u)[0]
        colors[v] = colors[u]
        with pytest.raises(ColoringError) as caught:
            validation_mod.validate_coloring(graph, colors, max_colors=9)
        a, b = min(u, v), max(u, v)
        assert f"edge ({a}, {b}) is monochromatic (color {colors[u]})" in (
            caught.value.violations
        )

    def test_non_integer_colors_take_the_python_pass(self):
        graph = cycle_graph(300)
        colors = [1.5 if v % 2 else 2.5 for v in range(300)]
        kernel = native.kernel("validate")
        if kernel is not None:
            assert not validation_mod._passes_kernel(kernel, graph, colors, None, False)
        validation_mod.validate_coloring(graph, colors)  # the Python pass accepts it
        colors[0] = 0.5
        with pytest.raises(ColoringError) as caught:
            validation_mod.validate_coloring(graph, colors)
        assert caught.value.violations == ["node 0 has out-of-palette color 0.5"]


def _allowed(n: int, kind: str | None, rng: random.Random):
    """``None``, or about 70% of the nodes as a set or a byte mask."""
    if kind is None:
        return None
    keep = [rng.random() < 0.7 for _ in range(n)]
    if kind == "set":
        return {v for v in range(n) if keep[v]}
    return bytearray(keep)


def bfs_families():
    """(name, graph) pairs for the kernel-vs-twin BFS tests."""
    yield from ((f"rrg-d{d}", random_regular_graph(600, d, seed=d)) for d in range(3, 9))
    yield "torus", torus_grid(9, 70)
    yield "hypercube", hypercube(8)
    yield "nice", random_nice_graph(400, 6, seed=4)
    yield "sparse", sparse_graph(700, 3, 1.5)
    yield "disconnected", disjoint_union(
        [random_regular_graph(200, 4, seed=1), path_graph(90), Graph(5)]
    )
    yield "deep-path", path_graph(300)  # far more than 64 levels


BFS_FAMILIES = list(bfs_families())


class TestBreadthFirst:
    @staticmethod
    def assert_paths_agree(graph, sources, max_depth, allowed, python_twins):
        dist = bfs_mod.bfs_distances(graph, sources, max_depth, allowed)
        layers = bfs_mod.distance_layers(graph, sources, max_depth, allowed)
        assert dist == python_twins(bfs_mod.bfs_distances, graph, sources, max_depth, allowed)
        assert layers == python_twins(
            bfs_mod.distance_layers, graph, sources, max_depth, allowed
        )
        # The layers are the distances, bucketed and ascending.
        assert layers == [
            [v for v in range(graph.n) if dist[v] == i] for i in range(len(layers))
        ]
        assert sum(map(len, layers)) == graph.n - dist.count(bfs_mod.UNREACHED)

    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([1.5, 3.0, 5.0]),
        num_sources=st.sampled_from([1, 2, 7, 40]),
        max_depth=st.sampled_from([None, 0, 1, 3, 10]),
        allowed_kind=st.sampled_from([None, "set", "bytearray"]),
    )
    def test_twins_agree(
        self, n, seed, avg, num_sources, max_depth, allowed_kind, python_twins
    ):
        rng = random.Random(seed)
        graph = sparse_graph(n, seed, avg)
        allowed = _allowed(n, allowed_kind, rng)
        # Repeats too, and with ``allowed`` some sources lie outside it.
        sources = [rng.randrange(n) for _ in range(num_sources)]
        dist = bfs_mod._bfs_distances_python(graph, sources, max_depth, allowed)
        layers = bfs_mod._distance_layers_python(graph, sources, max_depth, allowed)
        assert bfs_mod.bfs_distances(
            graph, iter(sources), max_depth=max_depth, allowed=allowed
        ) == dist
        assert bfs_mod.distance_layers(
            graph, set(sources), max_depth=max_depth, allowed=allowed
        ) == layers
        self.assert_paths_agree(graph, sources, max_depth, allowed, python_twins)

    @pytest.mark.parametrize("max_depth", [0, 1, None])
    @pytest.mark.parametrize(
        "name,graph", BFS_FAMILIES, ids=[name for name, _ in BFS_FAMILIES]
    )
    def test_kernel_matches_twin_on_families(
        self, name, graph, max_depth, kernel_calls, python_twins
    ):
        rng = random.Random(graph.n)
        n = graph.n
        mask = bytearray(rng.random() < 0.8 for _ in range(n))
        members = {v for v in range(n) if mask[v]}
        source_sets = [
            [0],
            [n - 1, 0, n - 1, 0],  # duplicates, out of order
            [rng.randrange(n) for _ in range(5)],
            list(range(0, n, 9)),
        ]
        for sources in source_sets:
            for allowed in (None, members, mask):
                self.assert_paths_agree(graph, sources, max_depth, allowed, python_twins)
        assert bfs_mod.bfs_distances(graph, [], max_depth) == [bfs_mod.UNREACHED] * n
        assert python_twins(bfs_mod.bfs_distances, graph, [], max_depth) == (
            [bfs_mod.UNREACHED] * n
        )
        assert kernel_calls["level_bfs"] == KERNEL_LOADED * (2 * 3 * len(source_sets) + 1)

    @FAST
    @given(
        n=st.integers(1, 30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=45),
        sources=st.lists(st.integers(0, 29), max_size=6),
        max_depth=st.one_of(st.none(), st.integers(0, 6)),
        keep=st.lists(st.booleans(), min_size=30, max_size=30),
        allowed_kind=st.sampled_from([None, "set", "bytearray"]),
    )
    def test_small_sparse_graphs(
        self, n, edges, sources, max_depth, keep, allowed_kind, python_twins
    ):
        graph = Graph(n, {(min(u, v), max(u, v)) for u, v in edges if u != v and max(u, v) < n})
        sources = [s for s in sources if s < n]
        allowed = {
            None: None,
            "set": {v for v in range(n) if keep[v]},
            "bytearray": bytearray(keep[:n]),
        }[allowed_kind]
        self.assert_paths_agree(graph, sources, max_depth, allowed, python_twins)
        assert graph.is_connected() == python_twins(graph.is_connected)

    def test_sources_outside_allowed_are_skipped(self, python_twins):
        graph = random_regular_graph(1024, 4, seed=3)
        allowed = set(range(0, 1024, 2)) | {1}
        mask = bytearray(v in allowed for v in range(1024))
        sources = [1, 3, 5, 7]  # only 1 is allowed
        expected = bfs_mod._bfs_distances_python(graph, sources, None, allowed)
        assert expected[3] == expected[5] == -1 and expected[1] == 0
        for flags in (allowed, mask, bytes(mask)):
            assert bfs_mod.bfs_distances(graph, sources, allowed=flags) == expected
            assert python_twins(bfs_mod.bfs_distances, graph, sources, allowed=flags) == expected
        assert bfs_mod.distance_layers(graph, [3, 5], allowed=allowed) == []

    def test_empty_base_has_no_layers(self, monkeypatch, kernel_calls):
        graph = random_regular_graph(4096, 4, seed=1)

        def python_twin(*args):
            raise LookupError("empty base scanned the graph")

        monkeypatch.setattr(bfs_mod, "_distance_layers_python", python_twin)
        assert bfs_mod.distance_layers(graph, []) == []
        assert bfs_mod.distance_layers(graph, set(), max_depth=8, allowed=set()) == []
        assert not kernel_calls["level_bfs"]

    def test_allowed_kinds_route_by_type(self, kernel_calls):
        """Sets (of any size) and length-n byte masks go to the kernel;
        predicates, plain lists and masks of another length take the
        Python loop, with the same answers."""
        graph = random_regular_graph(4096, 4, seed=2)
        component = sorted(bfs_mod.bfs_ball(graph, 0, 4))
        member_set = set(component)
        want = bfs_mod._bfs_distances_python(graph, [component[0]], None, member_set)
        assert bfs_mod.bfs_distances(graph, [component[0]], allowed=member_set) == want
        assert len(bfs_mod.distance_layers(graph, [0], allowed=member_set)) == 5
        mask = bytearray(v % 3 != 2 for v in range(4096))
        layers = bfs_mod.distance_layers(graph, range(0, 4096, 16), max_depth=3, allowed=mask)
        assert kernel_calls["level_bfs"] == 3 * KERNEL_LOADED
        for flags in (mask.__getitem__, list(mask), mask + b"\0"):
            assert bfs_mod.distance_layers(
                graph, range(0, 4096, 16), max_depth=3, allowed=flags
            ) == layers
        assert kernel_calls["level_bfs"] == 3 * KERNEL_LOADED

    def test_deep_search_falls_back(self, kernel_calls, python_twins):
        """A search thousands of levels deep: the kernel (no level cap)
        and the fallback twin give the same distances and layers."""
        graph = path_graph(2000)
        dist = bfs_mod.bfs_distances(graph, [0, 1999])
        assert dist == [min(v, 1999 - v) for v in range(2000)]
        assert python_twins(bfs_mod.bfs_distances, graph, [0, 1999]) == dist
        layers = bfs_mod.distance_layers(graph, [0])
        assert layers == [[v] for v in range(2000)]
        assert python_twins(bfs_mod.distance_layers, graph, [0]) == layers
        assert kernel_calls["level_bfs"] == 2 * KERNEL_LOADED

    def test_small_reach_fills_a_fresh_list(self, kernel_calls, python_twins):
        """Both ways the kernel's distances become a list (a search that
        reaches under an eighth of the graph, and one that reaches
        more) give the twin's list."""
        graph = random_regular_graph(4096, 8, seed=2)
        for sources, depth in (([0, 1], 1), ([0, 1], 2), (range(0, 4096, 16), 3), ([5], None)):
            dist = bfs_mod.bfs_distances(graph, sources, max_depth=depth)
            assert dist == python_twins(bfs_mod.bfs_distances, graph, sources, max_depth=depth)
        assert kernel_calls["level_bfs"] == 4 * KERNEL_LOADED

    def test_out_of_range_source_keeps_python_semantics(self, python_twins):
        """A source or ``allowed`` node outside 0..n-1 raises IndexError
        on both paths (a negative id once wrapped around to n + id)."""
        graph = random_regular_graph(300, 4, seed=1)
        for run in (lambda fn, *args: fn(*args), python_twins):
            for bad in (300, -1, 10**12):
                with pytest.raises(IndexError):
                    run(bfs_mod.bfs_distances, graph, [0, bad])
                with pytest.raises(IndexError):
                    run(bfs_mod.distance_layers, graph, [bad], 1)
                with pytest.raises(IndexError):
                    run(bfs_mod.bfs_distances, graph, [0], None, {0, 1, bad})
                with pytest.raises(IndexError):
                    run(bfs_mod.distance_layers, graph, [0], None, {0, bad})

    def test_negative_source_does_not_wrap(self, python_twins):
        """On a 16-node graph ``distance_layers(g, [-1], max_depth=1)``
        once returned node 15 and its neighbours."""
        graph = random_regular_graph(16, 3, seed=1)
        for run in (lambda fn, *args, **kw: fn(*args, **kw), python_twins):
            for search in (bfs_mod.distance_layers, bfs_mod.bfs_distances):
                with pytest.raises(IndexError):
                    run(search, graph, [-1], max_depth=1)
            for search in (bfs_mod.bfs_ball, bfs_mod.bfs_levels, bfs_mod.bfs_tree):
                with pytest.raises(IndexError):
                    run(search, graph, -1, 1)
            with pytest.raises(IndexError):
                run(bfs_mod.closest_source_assignment, graph, [-1])


class TestBoundary:
    """Phase 5's H-boundary (fewer than Δ neighbours inside H) from H's
    CSR rows, in the kernel and in pure Python; the sets must iterate in
    one order too."""

    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([1.5, 3.0, 5.0]),
        carved=st.booleans(),
    )
    def test_twins_agree(self, n, seed, avg, carved, python_twins):
        rng = random.Random(seed)
        graph = sparse_graph(n, seed, avg)
        h_nodes = _allowed(n, "set", rng) if carved else set(range(n))
        h_mask = bytearray(v in h_nodes for v in range(n))
        delta = graph.max_degree()
        expected = happiness_mod._boundary_python(graph, h_nodes, h_mask, delta)
        assert expected == {
            v for v in h_nodes if sum(u in h_nodes for u in graph.adj[v]) < delta
        }
        got = happiness_mod._boundary(graph, h_nodes, h_mask, delta)
        twin = python_twins(happiness_mod._boundary, graph, h_nodes, h_mask, delta)
        assert got == twin == expected
        assert list(got) == list(twin) == list(expected)

    def test_regular_graph_has_no_boundary(self):
        graph = high_girth_regular_graph(1024, 3, 7, seed=1)
        h_nodes = set(range(graph.n))
        assert happiness_mod._boundary(graph, h_nodes, bytearray([1]) * graph.n, 3) == set()


class TestAdoption:
    """``DynamicGraph`` adoption: row starts, row lengths and the degree
    histogram of a CSR (the kernel's ``adopt_rows`` and
    ``_adopt_rows_python``), against the graph's own rows."""

    @staticmethod
    def assert_twins_agree(graph: Graph) -> None:
        offsets, _ = graph.csr()
        starts, lens, hist = dynamic_mod._adopt_rows(offsets, graph.n)
        assert starts.typecode == "q" and lens.typecode == "i"
        assert list(starts) == list(offsets[: graph.n])
        assert list(lens) == [len(graph.neighbors_csr(v)) for v in range(graph.n)]
        assert hist == dict(Counter(lens))
        assert (starts, lens, hist) == dynamic_mod._adopt_rows_python(offsets, graph.n)
        dyn = dynamic_mod.DynamicGraph.from_graph(graph)
        assert dyn.max_degree() == max(hist, default=0) == graph.max_degree()

    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([0.5, 1.8, 3.0, 5.0]),
    )
    def test_twins_agree(self, n, seed, avg):
        self.assert_twins_agree(sparse_graph(n, seed, avg))

    @pytest.mark.parametrize("n", [0, 1, 7, 600])
    def test_edgeless_graphs(self, n):
        # n=0 has an empty histogram; isolated nodes only a zero bucket.
        self.assert_twins_agree(Graph(n))

    def test_isolated_nodes_among_edges(self):
        base = random_regular_graph(600, 5, seed=9)
        self.assert_twins_agree(Graph(base.n + 40, list(base.edges())))


class TestEdges:
    """``Graph.edges``: the kernel's ``edge_pairs`` against the row loop,
    and both against the rows themselves (CSR order, ``u < v``)."""

    @staticmethod
    def assert_twins_agree(graph: Graph) -> None:
        offsets, indices = graph.csr()
        expected = [
            (u, v) for u in range(graph.n) for v in graph.neighbors_csr(u) if u < v
        ]
        flat = array("i", [w for edge in expected for w in edge])
        assert graph_mod._edge_pairs_python(offsets, indices) == flat
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "kernel", lambda name: None)
            assert list(graph.edges()) == expected
        assert list(graph.edges()) == expected
        assert graph.edge_pairs() == flat

    @FAST
    @given(
        n=st.sampled_from([2, 31, 32, 33, *SIZES]),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([0.5, 1.8, 3.0, 5.0]),
    )
    def test_twins_agree(self, n, seed, avg):
        self.assert_twins_agree(sparse_graph(n, seed, avg))

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_edgeless_graphs(self, n):
        self.assert_twins_agree(Graph(n))

    def test_mutated_dynamic_graph(self):
        dyn = dynamic_mod.DynamicGraph.from_graph(random_regular_graph(200, 5, seed=2))
        dyn.delete_edge(*next(iter(dyn.edges())))
        dyn.insert_edge(0, next(w for w in range(1, dyn.n) if not dyn.has_edge(0, w)))
        self.assert_twins_agree(dyn)


# -- Whole-graph scans: validate, h_boundary, edge_pairs --------------------


def scan_families():
    """(name, graph) pairs for the three whole-graph scans."""
    yield from ((f"rrg-d{d}", random_regular_graph(300, d, seed=d)) for d in range(3, 9))
    yield "torus", torus_grid(9, 12)
    yield "hypercube", hypercube(6)
    yield "nice", random_nice_graph(250, 5, seed=4)
    yield "sparse", sparse_graph(300, 3, 1.5)
    yield "sparse-isolated", sparse_graph(200, 8, 0.4)
    yield "empty", Graph(0)
    yield "single", Graph(1)


SCAN_FAMILIES = list(scan_families())
SCAN_IDS = [name for name, _ in SCAN_FAMILIES]


def greedy_coloring(graph: Graph) -> list[int]:
    colors = [0] * graph.n
    for v in range(graph.n):
        taken = {colors[u] for u in graph.neighbors_csr(v)}
        colors[v] = next(c for c in range(1, graph.n + 2) if c not in taken)
    return colors


def coloring_cases(graph: Graph, seed: int):
    """(label, colors, max_colors, allow_partial) covering every check of
    the validator, on colors the kernel takes and colors it cannot."""
    rng = random.Random(seed)
    n = graph.n
    proper = greedy_coloring(graph)
    palette = max(proper, default=0)
    yield "proper", proper, palette, False
    yield "proper-uncapped", proper, None, False
    yield "proper-palette-too-small", proper, palette - 1, False
    edges = list(graph.edges())
    if edges:
        u, v = edges[rng.randrange(len(edges))]
        mono = proper[:]
        mono[v] = mono[u]
        yield "monochromatic", mono, palette, False
        yield "monochromatic-uncapped", mono, None, True

    def changed(values):
        colors = proper[:]
        for _ in range(min(3, n)):
            colors[rng.randrange(n)] = rng.choice(values)
        return colors
    if n:
        partial = changed([0])
        yield "uncolored", partial, palette, False
        yield "uncolored-allowed", partial, palette, True
        wide = changed([palette + 1, palette + 7])
        yield "out-of-palette", wide, palette, False
        yield "out-of-palette-uncapped", wide, None, False
        yield "at-int-max", changed([2**31 - 1]), None, False
        yield "beyond-int", changed([2**31, 2**40]), None, False
        yield "beyond-int-capped", changed([2**31]), 2**40, False
        yield "negative", changed([-1, -(2**31)]), palette, True
        yield "below-int", changed([-(2**31) - 1]), None, True
        yield "floats", changed([1.5, 2.0]), palette, False
        yield "bools", changed([True]), palette, False
        yield "none", changed([None]), palette, False
        yield "cap-zero", proper, 0, True
        yield "cap-negative", proper, -3, False


def fits_int(colors) -> bool:
    return all(type(c) in (int, bool) and -(2**31) <= c < 2**31 for c in colors)


@pytest.mark.parametrize("name,graph", SCAN_FAMILIES, ids=SCAN_IDS)
def test_validate_kernel_matches_twin(name, graph, kernel_calls, python_twins):
    """Every case gives the twin's verdict, word for word, whether the
    kernel decided it or handed it over; colors that fit a C int are
    decided by the kernel, and its pass/fail equals the twin's."""
    kernel = native.kernel_status().functions.get("validate")
    for label, colors, max_colors, allow_partial in coloring_cases(graph, seed=graph.n):
        args = (graph, colors, max_colors, allow_partial)
        expected = python_twins(verdict, *args)
        assert verdict(*args) == expected, label
        for arg in (ColorStore(colors), array("i", colors)) if fits_int(colors) else ():
            arg_args = (graph, arg, max_colors, allow_partial)
            assert verdict(*arg_args) == python_twins(verdict, *arg_args), label
        if kernel is not None and fits_int(colors):
            passed = validation_mod._passes_kernel(kernel, graph, colors, max_colors, allow_partial)
            assert passed == (expected is None), label
    if kernel is not None:
        assert kernel_calls["validate"] > 0


@pytest.mark.parametrize("name,graph", SCAN_FAMILIES, ids=SCAN_IDS)
def test_validate_length_mismatch(name, graph, python_twins):
    for colors in ([1] * (graph.n + 1), [1] * max(0, graph.n - 1)):
        if len(colors) == graph.n:
            continue
        expected = python_twins(verdict, graph, colors, None, False)
        assert expected[0] == "ColoringError"
        assert verdict(graph, colors, None, False) == expected
        assert verdict(graph, ColorStore(colors), None, False) == expected


@pytest.mark.parametrize("name,graph", SCAN_FAMILIES, ids=SCAN_IDS)
def test_h_boundary_kernel_matches_twin(name, graph, kernel_calls, python_twins):
    """Empty H, all of H and random H at several densities: the same set,
    iterating in the same order, with Δ and Δ - 1 as the threshold."""
    rng = random.Random(graph.n)
    subsets = [set(), set(range(graph.n))]
    subsets += [{v for v in range(graph.n) if rng.random() < p} for p in (0.2, 0.5, 0.9)]
    delta = graph.max_degree()
    for h_nodes in subsets:
        h_mask = bytearray(v in h_nodes for v in range(graph.n))
        for threshold in (delta, max(0, delta - 1)):
            got = happiness_mod._boundary(graph, h_nodes, h_mask, threshold)
            twin = python_twins(happiness_mod._boundary, graph, h_nodes, h_mask, threshold)
            assert got == twin
            assert list(got) == list(twin)
    if native.kernel_status().functions:
        assert kernel_calls["h_boundary"] > 0


@pytest.mark.parametrize("name,graph", SCAN_FAMILIES, ids=SCAN_IDS)
def test_edge_pairs_kernel_matches_twin(name, graph, kernel_calls, python_twins):
    got = list(graph.edges())
    assert got == python_twins(lambda: list(graph.edges()))
    flat = graph_mod._edge_pairs_python(*graph.csr())
    assert got == list(zip(flat[0::2], flat[1::2]))
    assert len(got) == graph.num_edges
    if native.kernel_status().functions:
        assert kernel_calls["edge_pairs"] == 1


# -- Linial reduction rounds --------------------------------------------------


@pytest.mark.parametrize("name,graph", [
    ("rrg-d8", random_regular_graph(2048, 8, seed=3)),
    ("rrg-d3", random_regular_graph(1024, 3, seed=4)),
    ("isolated-and-sparse", sparse_graph(900, 5, 1.8)),
    ("edgeless", Graph(600, [])),
    ("dense", random_graph_with_max_degree(600, 130, 90.0, seed=6)),
], ids=lambda value: value if isinstance(value, str) else "")
def test_linial_rounds_agree(name, graph):
    """Every reduction round of the kernel's first-free point search
    against the scalar twin, starting from distinct random colors below
    10^6 (so the dense graph's first round has q > 256)."""
    kernel = native.kernel("linial_round")
    if kernel is None:
        pytest.skip("native kernel not loaded on this box")
    delta = max(1, graph.max_degree())
    k = 10**6
    colors = random.Random(graph.n).sample(range(k), graph.n)
    rounds = 0
    while True:
        d, q = linial_mod._choose_parameters(k, delta)
        if q * q >= k:
            break
        fast = linial_mod._reduce_rounds_native(kernel, graph, [(d, q)], colors)
        assert fast == linial_mod._reduce_round_python(graph, colors, d, q), (name, q)
        colors, k = fast, q * q
        rounds += 1
    assert rounds >= 1


LINIAL_FAMILIES = [
    *((f"rrg-d{d}", random_regular_graph(1000, d, seed=d)) for d in range(3, 9)),
    ("torus", torus_grid(20, 31)),
    ("hypercube", hypercube(9)),
    ("nice", random_nice_graph(700, 6, seed=4)),
    ("sparse", sparse_graph(800, 3, 1.5)),
    ("disconnected", disjoint_union([random_regular_graph(300, 5, seed=2), path_graph(40)])),
    ("tiny", path_graph(3)),
    ("empty", Graph(0)),
]


@pytest.mark.parametrize(
    "name,graph", LINIAL_FAMILIES, ids=[name for name, _ in LINIAL_FAMILIES]
)
def test_linial_schedule_kernel_matches_twin(name, graph, python_twins):
    """``linial_coloring`` from the identity coloring, round by round:
    each round of the schedule in the kernel matches the scalar twin
    applied to the kernel's previous round, and the whole run (colors,
    palette, ledger) matches the twin's run."""
    kernel = native.kernel("linial_round")
    ledger, twin_ledger = RoundLedger(), RoundLedger()
    result = linial_mod.linial_coloring(graph, ledger)
    twin = python_twins(linial_mod.linial_coloring, graph, twin_ledger)
    assert (result.colors, result.palette, result.iterations) == (
        twin.colors, twin.palette, twin.iterations
    )
    assert ledger.total_rounds == twin_ledger.total_rounds == result.iterations
    if kernel is None:
        return
    steps = []
    k = max(graph.n, 2)
    while True:
        d, q = linial_mod._choose_parameters(k, max(1, graph.max_degree()))
        if q * q >= k:
            break
        steps.append((d, q))
        k = q * q
    assert len(steps) == result.iterations
    colors = list(range(graph.n))
    for i, (d, q) in enumerate(steps):
        fast = linial_mod._reduce_rounds_native(kernel, graph, steps[: i + 1])
        colors = linial_mod._reduce_round_python(graph, colors, d, q)
        assert fast == colors, (name, i)
    assert colors == result.colors


def test_linial_kernel_reports_a_stuck_node():
    """A coloring that is not proper leaves a node with no free point:
    the kernel names it and the wrapper raises, like the twin."""
    kernel = native.kernel("linial_round")
    if kernel is None:
        pytest.skip("native kernel not loaded on this box")
    graph = path_graph(4)
    with pytest.raises(AssertionError, match="node 1"):
        linial_mod._reduce_rounds_native(kernel, graph, [(1, 3)], [0, 3, 3, 5])
    with pytest.raises(AssertionError):
        linial_mod._reduce_round_python(graph, [0, 3, 3, 5], 1, 3)


# -- DCC detection ------------------------------------------------------------


def theta_edges(offset: int, lengths: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Two hubs joined by three internally disjoint paths (a DCC)."""
    a, b = offset, offset + 1
    edges = []
    nxt = offset + 2
    for length in lengths:
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
    return edges


def planted(base: Graph, gadgets: list[list[tuple[int, int]]], seed: int) -> Graph:
    """``base`` plus each gadget, each tied to a random base node."""
    rng = random.Random(seed)
    edges = list(base.edges())
    n = base.n
    for gadget in gadgets:
        size = 1 + max(max(e) for e in gadget)
        edges += [(u + n, v + n) for u, v in gadget]
        edges.append((rng.randrange(base.n), n))
        n += size
    return Graph(n, edges)


def cycle_chords(graph: Graph, length: int, count: int, seed: int) -> Graph:
    """Add ``count`` chords between the ends of random walks of
    ``length - 1`` steps (on a girth-9 graph each closes a ``length``-cycle)."""
    rng = random.Random(seed)
    edges = set(graph.edges())
    adj = graph.adj
    added = 0
    for _ in range(50 * count):
        if added == count:
            break
        path = [rng.randrange(graph.n)]
        for _ in range(length - 1):
            options = [w for w in adj[path[-1]] if w not in path]
            if not options:
                break
            path.append(rng.choice(options))
        if len(path) == length:
            key = (min(path[0], path[-1]), max(path[0], path[-1]))
            if key not in edges:
                edges.add(key)
                added += 1
    return Graph(graph.n, sorted(edges))


def detection_workloads():
    girth9 = high_girth_regular_graph(300, 3, 9, seed=4)
    return [
        ("torus", torus_grid(17, 18), (2, 3)),
        ("girth9", girth9, (2, 4)),
        ("planted-4-cycles", cycle_chords(girth9, 4, 12, seed=5), (2, 3)),
        ("planted-5-cycles", cycle_chords(girth9, 5, 12, seed=7), (2, 3)),
        (
            "planted-thetas",
            planted(girth9, [theta_edges(0, (2, 3, 3)), theta_edges(0, (1, 3, 4))], 6),
            (2, 3),
        ),
        ("gallai-trees", disjoint_union([random_gallai_tree(60, seed=s) for s in range(3)]), (2, 3)),
        (
            "disconnected",
            disjoint_union([torus_grid(6, 7), random_regular_graph(200, 5, seed=8), path_graph(30)]),
            (2, 3),
        ),
        ("rrg-multi-chunk", random_regular_graph(4096, 6, seed=9), (2,)),
        ("below-gate", torus_grid(15, 17), (2,)),  # n = 255
        ("tiny", torus_grid(3, 4), (1, 2)),
    ]


requires_kernel = pytest.mark.skipif(
    native.kernel("dcc_detect") is None, reason="native kernel not loaded on this box"
)


def assert_same_detection(got, expected, label=""):
    assert got.dccs == expected.dccs, label
    assert got.selected_by == expected.selected_by, label
    assert got.nodes_in_dccs == expected.nodes_in_dccs, label


@pytest.mark.parametrize(
    "name,graph,radii", detection_workloads(), ids=[w[0] for w in detection_workloads()]
)
def test_dcc_detection_paths_agree(name, graph, radii, detect_python):
    for radius in radii:
        got = dcc_mod.detect_dccs(graph, radius)
        assert_same_detection(got, detect_python(graph, radius), name)
        # Independent oracle: every selection is a DCC (Definition 9).
        assert all(is_degree_choosable_component(graph, dcc) for dcc in got.dccs), name


@pytest.mark.parametrize(
    "name,graph,radii", detection_workloads(), ids=[w[0] for w in detection_workloads()]
)
def test_dcc_detection_paths_agree_on_active_subsets(name, graph, radii, detect_python):
    """``active=`` (the per-component call sites): balls stay inside the
    subset, one scratch serves every call and is left clean."""
    rng = random.Random(graph.n)
    scratch = dcc_mod.DCCScratch(graph.n)
    near = bfs_mod.bfs_distances(graph, [0], max_depth=4)
    subsets = [
        {v for v in range(graph.n) if rng.random() < 0.7},
        {v for v in range(graph.n) if near[v] >= 0},
        set(),
    ]
    for radius in radii:
        for active in subsets:
            got = dcc_mod.detect_dccs(graph, radius, active=active, scratch=scratch)
            assert_same_detection(got, detect_python(graph, radius, active=active), name)
            assert got.nodes_in_dccs <= active
    assert not any(scratch.mask) and not any(scratch.active_mask)
    assert not any(scratch.cyclic)


@pytest.mark.parametrize("bad", [-1, 42])
def test_dcc_detection_rejects_out_of_range_active_nodes(bad, detect_python):
    graph = torus_grid(6, 7)
    for detect in (dcc_mod.detect_dccs, detect_python):
        with pytest.raises(IndexError, match="out of range"):
            detect(graph, 2, active={0, 1, bad})


@FAST
@given(
    n=st.sampled_from([4, 9, 40, 255, 256, 600]),
    seed=st.integers(0, 10_000),
    avg=st.sampled_from([1.8, 3.0, 4.5]),
    radius=st.sampled_from([1, 2, 3]),
)
def test_dcc_detection_paths_agree_on_sparse_graphs(n, seed, avg, radius, detect_python):
    graph = sparse_graph(n, seed, avg)
    assert_same_detection(dcc_mod.detect_dccs(graph, radius), detect_python(graph, radius))


def relabeled(graph: Graph, seed: int) -> Graph:
    """``graph`` under a random permutation of its labels, so discovery
    order (roots ascending, neighbours in CSR order) is exercised on
    arbitrary labelings, not the generator's."""
    order = list(range(graph.n))
    random.Random(seed).shuffle(order)
    return Graph(graph.n, [(order[u], order[v]) for u, v in graph.edges()])


def glued(blocks: list[list[tuple[int, int]]], tail: int = 0) -> Graph:
    """The blocks in a chain, each sharing one cut vertex with the next,
    plus a ``tail``-node pendant path on the first block."""
    edges: list[tuple[int, int]] = []
    n = 0
    joint = None
    for block in blocks:
        size = 1 + max(max(e) for e in block)
        # Node 0 of each block is the previous block's last node.
        base = n if joint is None else n - 1
        mapping = {i: base + i for i in range(size)}
        if joint is not None:
            mapping[0] = joint
        edges += [(mapping[u], mapping[v]) for u, v in block]
        n = base + size
        joint = mapping[size - 1]
    for i in range(tail):
        edges.append((i if i == 0 else n + i - 1, n + i))
    return Graph(n + tail, edges)


def clique_edges(k: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(k) for v in range(u + 1, k)]


def cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def wheel_edges(rim: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, rim + 1)] + [
        (i, i % rim + 1) for i in range(1, rim + 1)
    ]


def minus_edge(k: int) -> list[tuple[int, int]]:
    return clique_edges(k)[1:]


def kernel_families():
    cut_chain = [
        cycle_edges(4), clique_edges(4), cycle_edges(5), theta_edges(0, (2, 2, 3)),
        cycle_edges(6), wheel_edges(5), clique_edges(5), minus_edge(5),
    ]
    return [
        ("cut-vertex-blocks", glued(cut_chain, tail=3)),
        ("cut-vertex-blocks-relabeled", relabeled(glued(cut_chain + cut_chain[::-1], 4), 1)),
        ("k4-k5-blocks", relabeled(glued([clique_edges(4), clique_edges(5), clique_edges(4)], 2), 2)),
        ("odd-cycle-blocks", relabeled(glued([cycle_edges(5), cycle_edges(7), cycle_edges(3), cycle_edges(5)]), 3)),
        ("chorded-odd-cycle", glued([cycle_edges(7) + [(0, 3)], cycle_edges(5)])),
        (
            "thetas",
            relabeled(disjoint_union([
                Graph(1 + max(max(e) for e in theta_edges(0, lengths)), theta_edges(0, lengths))
                for lengths in ((1, 2, 2), (2, 2, 2), (2, 3, 3), (1, 3, 4), (3, 3, 5))
            ]), 4),
        ),
        ("wheels", relabeled(disjoint_union([Graph(r + 1, wheel_edges(r)) for r in range(3, 9)]), 5)),
        ("k-minus-edge", relabeled(disjoint_union([Graph(k, minus_edge(k)) for k in range(4, 8)]), 6)),
        ("tori", disjoint_union([torus_grid(4, 5), torus_grid(5, 5), torus_grid(8, 9)])),
        ("hypercubes", disjoint_union([hypercube(d) for d in range(3, 7)])),
        *[(f"rrg-d{d}", random_regular_graph(160, d, seed=d)) for d in range(3, 9)],
        ("random-nice", random_nice_graph(300, 5, seed=11)),
    ]


def assert_well_formed(detection):
    """Distinct DCCs, each sorted, and every selection names a DCC that
    holds its node."""
    assert len(set(detection.dccs)) == len(detection.dccs)
    assert all(list(dcc) == sorted(dcc) for dcc in detection.dccs)
    for v, index in enumerate(detection.selected_by):
        assert index == -1 or v in detection.dccs[index]
    assert detection.nodes_in_dccs == set().union(*detection.dccs)


@pytest.mark.parametrize(
    "name,graph", kernel_families(), ids=[f[0] for f in kernel_families()]
)
def test_dcc_kernel_selection_matches_twin(name, graph, detect_python):
    """Block selection in the kernel (Hopcroft–Tarjan order, the clique
    and odd-cycle rejects, first qualifying block, adoption) against the
    Python twin, radius 1 to 4."""
    for radius in (1, 2, 3, 4):
        got = dcc_mod.detect_dccs(graph, radius)
        expected = detect_python(graph, radius)
        assert_same_detection(got, expected, f"{name} r={radius}")
        assert_well_formed(got)
        assert_well_formed(expected)
        assert all(is_degree_choosable_component(graph, dcc) for dcc in got.dccs), name
        if name in ("k4-k5-blocks", "odd-cycle-blocks"):
            assert not got.dccs  # a Gallai tree: every block is rejected


def test_dcc_kernel_selects_the_expected_blocks():
    """On a chain of blocks the selected DCCs are exactly the qualifying
    blocks: the C4, the theta, the C6, the wheel and K5 minus an edge —
    never the K4, the C5 or the K5."""
    graph = glued([
        cycle_edges(4), clique_edges(4), cycle_edges(5), theta_edges(0, (2, 2, 3)),
        cycle_edges(6), wheel_edges(5), clique_edges(5), minus_edge(5),
    ])
    detection = dcc_mod.detect_dccs(graph, 4)
    assert sorted(len(dcc) for dcc in detection.dccs) == [4, 5, 6, 6, 6]
    assert all(is_degree_choosable_component(graph, dcc) for dcc in detection.dccs)
    assert_well_formed(detection)


@pytest.mark.parametrize("name,graph", [
    ("tori", disjoint_union([torus_grid(5, 6), torus_grid(7, 7)])),
    ("rrg-d4", random_regular_graph(400, 4, seed=2)),
    ("random-nice", random_nice_graph(300, 5, seed=12)),
    ("cut-vertex-blocks", relabeled(glued([
        cycle_edges(4), clique_edges(4), theta_edges(0, (2, 2, 3)), wheel_edges(6),
    ] * 3, 5), 7)),
])
def test_dcc_kernel_per_component_sweeps_share_scratch(name, graph, detect_python):
    """The ``small_components`` call pattern: one :class:`DCCScratch`
    serves a detection per connected piece of a carved subgraph, and is
    left at rest (masks and degrees zero, selections -1)."""
    rng = random.Random(graph.n)
    kept = bytearray(1 if rng.random() < 0.75 else 0 for _ in range(graph.n))
    pieces = Graph(graph.n, [
        (u, v) for u, v in graph.edges() if kept[u] and kept[v]
    ]).connected_components()
    scratch = dcc_mod.DCCScratch(graph.n)
    for radius in (1, 2, 3):
        for piece in pieces:
            active = {v for v in piece if kept[v]}
            got = dcc_mod.detect_dccs(graph, radius, active=active, scratch=scratch)
            assert_same_detection(got, detect_python(graph, radius, active=active), name)
            assert_well_formed(got)
            assert got.nodes_in_dccs <= active
    assert not any(scratch.mask) and not any(scratch.active_mask)
    assert not any(scratch.cyclic)
    if native.kernel("dcc_detect") is not None:
        zeroed, _, selected, _, _ = scratch.kernel_buffers()
        assert not any(zeroed) and set(selected) == {-1}


@requires_kernel
def test_dcc_detection_tiny_output_capacity(monkeypatch, detect_python):
    """One DCC per kernel call: every DCC after the first ends a call and
    goes through the resume path (its node is recomputed from scratch)."""
    graph = planted(
        high_girth_regular_graph(400, 3, 9, seed=2),
        [theta_edges(0, (2, 2, 3)), theta_edges(0, (3, 3, 3))],
        3,
    )
    graph = disjoint_union([graph, torus_grid(6, 8), glued([
        cycle_edges(4), clique_edges(4), wheel_edges(5), minus_edge(6),
    ])])
    calls = []
    kernel = native.kernel("dcc_detect")
    real = native.kernel

    def counting(*args):
        calls.append(args[7])  # the start position
        return kernel(*args)

    monkeypatch.setattr(dcc_mod, "_OUT_DCCS", 1)
    monkeypatch.setattr(
        native, "kernel", lambda name: counting if name == "dcc_detect" else real(name)
    )
    for radius in (2, 3):
        calls.clear()
        expected = detect_python(graph, radius)
        assert_same_detection(dcc_mod.detect_dccs(graph, radius), expected)
        assert expected.dccs
        # Every call but the last ends at a DCC that did not fit.
        assert len(calls) == len(expected.dccs)
        assert calls == sorted(calls)
    active = set(range(0, graph.n, 2)) | set(expected.nodes_in_dccs)
    assert_same_detection(
        dcc_mod.detect_dccs(graph, 3, active=active),
        detect_python(graph, 3, active=active),
    )


@requires_kernel
def test_dcc_scratch_is_reused_and_left_zeroed():
    graph = torus_grid(20, 20)
    scratch = dcc_mod.DCCScratch(graph.n)
    first = dcc_mod.detect_dccs(graph, 2, scratch=scratch)
    buffers = scratch.kernel_buffers()
    deg = buffers[0]
    assert not any(deg) and not any(scratch.mask) and not any(scratch.cyclic)
    assert not any(scratch.scratch[0]) and not any(scratch.scratch[1])
    second = dcc_mod.detect_dccs(graph, 2, scratch=scratch)
    assert scratch.kernel_buffers() is buffers
    assert_same_detection(first, second)


# -- the short-cycle prefilter: which passes the kernel may skip --------
#
# ``short_cycles`` marks every node on a cycle of length <= 2r+1 and
# ``dcc_detect`` collects only the marked nodes' balls, reading no row of
# an unmarked node at the ball's rim.  A prefilter that misses a cycle
# drops a DCC, and one that misjudges a rim node's degree breaks a core,
# so the twin (which has no prefilter) is the oracle.


@pytest.fixture
def prefilter_marks(monkeypatch):
    """The return value of every ``short_cycles`` call (the marked count,
    or -1 when the marks were dropped as too dense)."""
    real = native.kernel
    marks = []

    def recorded(name):
        function = real(name)
        if name != "short_cycles" or function is None:
            return function

        def call(*args):
            marks.append(function(*args))
            return marks[-1]

        return call

    monkeypatch.setattr(native, "kernel", recorded)
    return marks


def odd_thetas(cycle: int, copies: int, seed: int) -> Graph:
    """Thetas of two ``cycle``-cycles sharing an edge, planted on a
    girth-9 cubic graph: from the smallest node of either cycle, the edge
    opposite it joins two nodes at depth (cycle - 1) / 2."""
    half = cycle - 1
    return planted(
        high_girth_regular_graph(300, 3, 9, seed=4),
        [theta_edges(0, (1, half, half))] * copies,
        seed,
    )


@requires_kernel
@pytest.mark.parametrize("cycle,radius", [(5, 2), (7, 3)])
@pytest.mark.parametrize("relabel", [None, 1, 2])
def test_dcc_prefilter_keeps_dccs_closed_by_odd_cycles(
    cycle, radius, relabel, prefilter_marks, detect_python
):
    """The only DCCs are thetas of two (2r+1)-cycles: the prefilter must
    read the rim's rows to find them, and stays on (the graph is sparse)."""
    graph = odd_thetas(cycle, 4, seed=3)
    if relabel is not None:
        graph = relabeled(graph, relabel)
    got = dcc_mod.detect_dccs(graph, radius)
    expected = detect_python(graph, radius)
    assert_same_detection(got, expected)
    assert len(expected.dccs) == 4
    assert all(len(dcc) == 2 * cycle - 2 for dcc in expected.dccs)
    assert prefilter_marks and all(mark > 0 for mark in prefilter_marks)


def dense_rrg(n: int, delta: int) -> Graph:
    return random_regular_graph(n, delta, seed=n + delta)


@requires_kernel
@pytest.mark.parametrize("n,delta,radius", [(1024, 8, 2), (4096, 8, 3)])
def test_dcc_prefilter_steps_aside_on_dense_graphs(
    n, delta, radius, prefilter_marks, detect_python
):
    """Short cycles everywhere: the marks are dropped (-1) and every ball
    is collected, with the twin's output."""
    graph = dense_rrg(n, delta)
    got = dcc_mod.detect_dccs(graph, radius)
    assert_same_detection(got, detect_python(graph, radius))
    assert got.dccs
    assert prefilter_marks == [-1]


@requires_kernel
def test_dcc_prefilter_on_dense_active_subsets(prefilter_marks, detect_python):
    """rrg n=4096, Δ=8, r=3 within ``active``: dense subsets drop the
    marks, sparse ones keep them; one scratch serves all and is left at
    rest."""
    graph = dense_rrg(4096, 8)
    rng = random.Random(5)
    scratch = dcc_mod.DCCScratch(graph.n)
    for share in (0.7, 0.3):
        active = {v for v in range(graph.n) if rng.random() < share}
        got = dcc_mod.detect_dccs(graph, 3, active=active, scratch=scratch)
        assert_same_detection(got, detect_python(graph, 3, active=active))
        assert got.dccs and got.nodes_in_dccs <= active
    assert prefilter_marks[0] == -1 and prefilter_marks[1] > 0
    assert not any(scratch.mask) and not any(scratch.active_mask)
    assert not any(scratch.cyclic)


@requires_kernel
@pytest.mark.parametrize("dense", [False, True])
def test_dcc_prefilter_runs_once_per_sweep_across_resumes(
    dense, monkeypatch, kernel_calls, detect_python
):
    """One DCC per output buffer forces a resume per DCC; the marks are
    built once per sweep and survive every resume."""
    if dense:
        graph = dense_rrg(1024, 8)
    else:
        graph = disjoint_union([odd_thetas(5, 3, seed=4), torus_grid(6, 8)])
    monkeypatch.setattr(dcc_mod, "_OUT_DCCS", 1)
    scratch = dcc_mod.DCCScratch(graph.n)
    for sweep, radius in enumerate((2, 3), start=1):
        expected = detect_python(graph, radius)
        got = dcc_mod.detect_dccs(graph, radius, scratch=scratch)
        assert_same_detection(got, expected)
        assert len(expected.dccs) > 1
        assert kernel_calls["short_cycles"] == sweep
        assert not any(scratch.cyclic)
    assert kernel_calls["dcc_detect"] > 2


# -- (deg+1)-list coloring: class sweep and trial rounds, kernel vs twin --


LIST_COLORING_GRAPHS = [
    *((f"rrg-d{d}", random_regular_graph(240, d, seed=d)) for d in range(3, 9)),
    ("torus", torus_grid(13, 15)),
    ("hypercube", hypercube(7)),
    ("nice", random_nice_graph(300, 6, seed=4)),
    ("sparse", random_graph_with_max_degree(200, 5, 2.5, seed=6)),
]
on_list_coloring_graphs = pytest.mark.parametrize(
    "name,graph", LIST_COLORING_GRAPHS, ids=[name for name, _ in LIST_COLORING_GRAPHS]
)


def precolored(graph: Graph, seed: int, max_colors: int) -> list[int]:
    """About a third of the nodes colored, some of them above
    ``max_colors`` (colors that exclude nothing)."""
    rng = random.Random(seed)
    return [
        rng.randint(1, max_colors + 3) if rng.random() < 0.35 else 0
        for _ in range(graph.n)
    ]


def target_sets(graph: Graph, seed: int) -> list[list[int]]:
    """All nodes, a random half, a 20-node layer and an empty one."""
    rng = random.Random(seed)
    nodes = list(range(graph.n))
    rng.shuffle(nodes)
    return [nodes, nodes[: graph.n // 2], nodes[:20], []]


def run_engine(engine, graph, colors, *args, **kwargs):
    """``engine`` on a copy of ``colors``: (colors after, stats or the
    error raised, ledger phases, the next rng draw)."""
    colors = list(colors)
    ledger = RoundLedger()
    rng = random.Random(11)
    try:
        outcome = engine(graph, colors, *args, ledger=ledger, rng=rng, **kwargs)
    except (InfeasibleListColoringError, AlgorithmContractError) as error:
        outcome = (type(error), str(error))
    return colors, outcome, ledger.snapshot(), rng.random()


@requires_kernel
@on_list_coloring_graphs
@pytest.mark.parametrize("engine", [list_coloring_random, list_coloring_hybrid])
def test_trial_rounds_kernel_matches_twin(name, graph, engine, kernel_calls, python_twins):
    delta = graph.max_degree()
    for seed, max_colors in enumerate((delta + 1, delta + 2, 3 * delta)):
        colors = precolored(graph, seed, max_colors)
        for targets in target_sets(graph, seed):
            for budget in (None, 1):
                cap = "max_iterations" if engine is list_coloring_random else "trial_budget"
                extra = {cap: budget}
                got = run_engine(engine, graph, colors, targets, max_colors, **extra)
                want = python_twins(run_engine, engine, graph, colors, targets, max_colors, **extra)
                assert got == want, (name, max_colors, len(targets), budget)
    assert kernel_calls["trial_round"] > 0


@requires_kernel
@on_list_coloring_graphs
def test_class_sweep_kernel_matches_twin(name, graph, kernel_calls, python_twins):
    delta = graph.max_degree()
    linial = linial_mod.linial_coloring(graph, RoundLedger())
    rng = random.Random(len(name))
    # A proper base coloring and an improper one: the shared within-class
    # order keeps the two paths equal on both.
    bases = [
        (linial.colors, linial.palette),
        ([rng.randrange(5) for _ in range(graph.n)], 5),
    ]
    for seed, max_colors in enumerate((delta + 1, delta + 2, 3 * delta)):
        colors = precolored(graph, seed, max_colors)
        for targets in target_sets(graph, seed):
            for base, palette in bases:
                args = (targets, max_colors, base, palette)
                got = run_engine(_deterministic, graph, colors, *args)
                want = python_twins(run_engine, _deterministic, graph, colors, *args)
                assert got == want, (name, max_colors, len(targets), palette)
    assert kernel_calls["class_sweep"] > 0


def _deterministic(graph, colors, targets, max_colors, base, palette, ledger, rng):
    return list_coloring_deterministic(graph, colors, targets, max_colors, base, palette, ledger)


@requires_kernel
@pytest.mark.parametrize("engine", ["random", "hybrid", "deterministic"])
@pytest.mark.parametrize("strict", [False, True])
def test_layer_passes_kernel_matches_twin(engine, strict, kernel_calls, python_twins):
    """A whole phase (one workspace, one class-sweep call for every layer
    outside strict mode), as the solvers run it."""
    for graph in (torus_grid(12, 17), random_regular_graph(500, 6, seed=3)):
        delta = graph.max_degree()
        linial = linial_mod.linial_coloring(graph, RoundLedger())
        layers = bfs_mod.distance_layers(graph, [0, graph.n // 2])
        layers.append([])
        for zero in (False, True):
            args = (layers, delta, engine)
            kwargs = {
                "base_colors": linial.colors, "palette": linial.palette,
                "include_layer_zero": zero, "strict": strict and not zero,
            }
            got = run_engine(_layers, graph, [0] * graph.n, *args, **kwargs)
            want = python_twins(run_engine, _layers, graph, [0] * graph.n, *args, **kwargs)
            assert got == want
            assert got[1].layers_colored == len(layers) - 1 - (not zero), got[1]
    assert sum(kernel_calls.values()) > 0


def _layers(graph, colors, layers, max_colors, engine, ledger, rng, **kwargs):
    return color_layers_in_reverse(graph, colors, layers, max_colors, engine, ledger, rng, **kwargs)


@requires_kernel
@pytest.mark.parametrize("engine", [list_coloring_random, _deterministic])
def test_infeasible_node_raises_on_both_paths(engine, kernel_calls, python_twins):
    # Node 0 of the torus sees colors 1..4 around it: nothing is left in a
    # 4-color palette, for either engine, and both paths name node 0 after
    # the same partial progress.
    graph = torus_grid(6, 7)
    colors = [0] * graph.n
    for c, u in enumerate(graph.adj[0], start=1):
        colors[u] = c
    targets = [v for v in range(graph.n) if not colors[v]]
    args = (targets, 4) if engine is list_coloring_random else (targets, 4, [0] * graph.n, 1)
    got = run_engine(engine, graph, colors, *args)
    assert got == python_twins(run_engine, engine, graph, colors, *args)
    assert got[1][0] is InfeasibleListColoringError and "node 0 " in got[1][1]
    assert sum(kernel_calls.values()) > 0


@FAST
@given(
    n=st.sampled_from([2, 9, 63, 64, 300]),
    seed=st.integers(0, 10_000),
    avg=st.sampled_from([1.5, 3.0, 5.0]),
    spare=st.sampled_from([1, 2, 7]),
)
def test_list_coloring_paths_agree_on_sparse_graphs(n, seed, avg, spare, python_twins):
    graph = sparse_graph(n, seed, avg)
    max_colors = graph.max_degree() + spare
    colors = precolored(graph, seed, max_colors)
    targets = target_sets(graph, seed)[1]
    for engine, args in (
        (list_coloring_hybrid, (targets, max_colors)),
        (_deterministic, (targets, max_colors, [v % 3 for v in range(n)], 3)),
    ):
        got = run_engine(engine, graph, colors, *args)
        assert got == python_twins(run_engine, engine, graph, colors, *args)


# -- Phase (9): B0's degree-list instances, kernel vs twin -----------------


def run_degree_list(graph, colors, components, max_colors):
    """``ColorWorkspace.degree_list`` on a copy of ``colors``, mirrored
    whenever the kernel is loaded: (colors after, the indices of the
    components the twin colored, or the error raised)."""
    colors = list(colors)
    try:
        with ColorWorkspace(graph, colors, graph.n) as work:
            outcome = work.degree_list(components, max_colors)
    except (InfeasibleListColoringError, IndexError) as error:
        outcome = (type(error), str(error))
    return colors, outcome


def surplus_case(graph, colors, component, max_colors) -> bool:
    """Does the twin color ``component`` in its surplus case (so the
    kernel must color it too)?  Every list at least its node's
    in-component degree, one list longer, the component connected."""
    members = sorted(set(component))
    inside = set(members)
    surplus = False
    for v in members:
        row = graph.neighbors(v)
        degree = sum(w in inside for w in row)
        size = max_colors - len(
            {colors[w] for w in row if w not in inside and 1 <= colors[w] <= max_colors}
        )
        if size < degree:
            return False
        surplus |= size > degree
    return surplus and graph.subgraph(members)[0].is_connected()


def expected_hand_backs(graph, colors, components, max_colors) -> list[int]:
    """The components the kernel hands back, found by running the twin
    one component at a time."""
    colors = list(colors)
    handed_back = []
    for i, component in enumerate(components):
        if not surplus_case(graph, colors, component, max_colors):
            handed_back.append(i)
        color_against_outside(graph, colors, component, max_colors)
    return handed_back


def assert_degree_list_pinned(graph, colors, components, max_colors, python_twins):
    """Same colors and same error text on both paths; on success the
    kernel hands back exactly the components outside the surplus case
    (all of them without the kernel, or when a color beyond int32 keeps
    the workspace on the twin).  Returns the first path's outcome."""
    got = run_degree_list(graph, colors, components, max_colors)
    want = python_twins(run_degree_list, graph, colors, components, max_colors)
    assert got[0] == want[0]
    if isinstance(want[1], tuple):
        assert got[1] == want[1]
    else:
        assert want[1] == list(range(len(components)))
        if native.kernel("degree_list_surplus") is not None and fits_int(colors):
            assert got[1] == expected_hand_backs(graph, colors, components, max_colors)
        else:
            assert got[1] == want[1]
    return got


def with_lists(edges, lists, max_colors, member_colors=None):
    """A component on nodes ``0..k-1`` with inner ``edges``, member v's
    list made exactly ``lists[v]``: it gets one pendant outside neighbour
    wearing each color of ``1..max_colors`` not on its list.  Returns
    (graph, colors, component)."""
    k = len(lists)
    edges = list(edges)
    colors = list(member_colors or [0] * k)
    for v, allowed in enumerate(lists):
        for c in range(1, max_colors + 1):
            if c not in allowed:
                edges.append((v, len(colors)))
                colors.append(c)
    return Graph(len(colors), edges), colors, list(range(k))


def degree_lists(edges, k, extra=()):
    """Lists ``1..deg(v)`` for every member, one color longer at the
    members in ``extra``."""
    degree = Counter(v for edge in edges for v in edge)
    return [set(range(1, degree[v] + 1 + (v in extra))) for v in range(k)]


C6 = cycle_edges(6)
THETA = theta_edges(0, (2, 2, 3))
WHEEL5 = wheel_edges(5)
K4_MINUS_EDGE = minus_edge(4)
TRIANGLE = clique_edges(3)


def b0_inputs(graph, seed):
    """What phase (9) of a real solve hands ``degree_list``: the colors
    after phase (8), the B0 components and Δ."""
    captured = []
    real = ColorWorkspace.degree_list

    def spy(self, components, max_colors):
        captured.append((list(self.view), [list(c) for c in components], max_colors))
        return real(self, components, max_colors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColorWorkspace, "degree_list", spy)
        solve(graph, algorithm="randomized-large", seed=seed)
    (inputs,) = captured
    return inputs


@requires_kernel
@pytest.mark.parametrize("seed", [1, 2])
def test_degree_list_kernel_matches_twin_on_solves(seed, kernel_calls, python_twins):
    graph = random_regular_graph(2048, 8, seed=seed)
    colors, components, max_colors = b0_inputs(graph, seed)
    assert len(components) > 10
    got = assert_degree_list_pinned(graph, colors, components, max_colors, python_twins)
    assert got[1] == []
    assert kernel_calls["degree_list_surplus"] > 0


@requires_kernel
@pytest.mark.parametrize("surplus_at", [0, 2, 5])
def test_degree_list_surplus_at_any_member(surplus_at, kernel_calls, python_twins):
    graph, colors, component = with_lists(C6, degree_lists(C6, 6, extra={surplus_at}), 4)
    got = assert_degree_list_pinned(graph, colors, [component], 4, python_twins)
    assert got[1] == []
    assert kernel_calls["degree_list_surplus"] > 0


TIGHT = {
    "even-cycle-equal-2-lists": (C6, [{1, 2}] * 6),
    "K4-minus-edge": (K4_MINUS_EDGE, degree_lists(K4_MINUS_EDGE, 4)),
    "theta": (THETA, degree_lists(THETA, 6)),
    "wheel": (WHEEL5, degree_lists(WHEEL5, 6)),
    "gallai-tree-feasible": (TRIANGLE, [{1, 2}, {2, 3}, {1, 3}]),
}


@requires_kernel
@pytest.mark.parametrize("name", sorted(TIGHT))
def test_degree_list_hands_tight_instances_back(name, kernel_calls, python_twins):
    edges, lists = TIGHT[name]
    graph, colors, component = with_lists(edges, lists, 6)
    got = assert_degree_list_pinned(graph, colors, [component], 6, python_twins)
    assert got[1] == [0]
    validate_coloring(graph, got[0], max_colors=6)
    assert kernel_calls["degree_list_surplus"] > 0


@requires_kernel
def test_degree_list_infeasible_leaves_colors_untouched(kernel_calls, python_twins):
    graph, colors, component = with_lists(cycle_edges(5), [{1, 2}] * 5, 4, member_colors=[3] * 5)
    got = assert_degree_list_pinned(graph, colors, [component], 4, python_twins)
    assert got == (colors, (InfeasibleListColoringError, "Gallai tree with tight lists admits no coloring"))
    assert kernel_calls["degree_list_surplus"] > 0


@requires_kernel
def test_degree_list_wide_palettes(kernel_calls, python_twins):
    # Δ > 64 on both sides of the kernel: a tight instance over colors
    # above 64, and a surplus one whose lists hold nearly every color.
    for lists in ([{65, 70}] * 6, [set(range(1, 71))] + degree_lists(C6, 6)[1:]):
        graph, colors, component = with_lists(C6, lists, 70)
        assert graph.max_degree() > 64
        assert_degree_list_pinned(graph, colors, [component], 70, python_twins)
    assert kernel_calls["degree_list_surplus"] > 0


@requires_kernel
@pytest.mark.parametrize("stale", [[5, 1, 9, 2, 2, 7], [2**31] * 6])
def test_degree_list_ignores_member_colors(stale, kernel_calls, python_twins):
    # Stale colors on the members constrain nothing; a stale color beyond
    # int32 keeps the whole workspace on the twin.
    lists = degree_lists(C6, 6, extra={3})
    graph, colors, component = with_lists(C6, lists, 4, member_colors=stale)
    got = assert_degree_list_pinned(graph, colors, [component], 4, python_twins)
    fresh = run_degree_list(graph, [0] * 6 + colors[6:], [component], 4)
    assert got[0][:6] == fresh[0][:6]


@requires_kernel
def test_degree_list_uncolored_outside_neighbours(kernel_calls, python_twins):
    # An uncolored outside neighbour takes nothing off a list: the member
    # it touches gets the surplus.
    graph, colors, component = with_lists(C6, [{1, 2}] * 6, 4)
    colors[next(u for u in graph.neighbors(4) if u >= 6)] = UNCOLORED
    got = assert_degree_list_pinned(graph, colors, [component], 4, python_twins)
    assert got[1] == []


@requires_kernel
def test_degree_list_components_see_each_other(kernel_calls, python_twins):
    # Two triangles joined by an edge: the second is colored against the
    # first's new colors, on both paths, and order matters.
    graph = Graph(6, TRIANGLE + [(3, 4), (4, 5), (3, 5), (2, 3)])
    for components in ([[0, 1, 2], [3, 4, 5]], [[5, 4, 3], [2, 1, 0, 0]]):
        got = assert_degree_list_pinned(graph, [0] * 6, components, 3, python_twins)
        validate_coloring(graph, got[0], max_colors=3)
    assert kernel_calls["degree_list_surplus"] > 0


@requires_kernel
@pytest.mark.parametrize("bad", [-1, 6, 2**31, 2**40])
def test_degree_list_rejects_out_of_range_members(bad, kernel_calls, python_twins):
    graph = Graph(6, TRIANGLE + [(3, 4), (4, 5), (3, 5)])
    components = [[0, 1, 2], [3, 4, bad]]
    got = assert_degree_list_pinned(graph, [0] * 6, components, 3, python_twins)
    assert got == ([0] * 6, (IndexError, "component 1 holds a node out of range for n=6"))


@requires_kernel
def test_dcc_solve_never_calls_the_degree_list_twin(kernel_calls, monkeypatch):
    """With the kernel loaded, every B0 component of a solve-dcc-shaped
    solve is colored natively: the twin never runs."""
    calls = Counter()
    real = degree_choosable_mod.color_against_outside

    def counted(*args):
        calls["color_against_outside"] += 1
        return real(*args)

    monkeypatch.setattr(degree_choosable_mod, "color_against_outside", counted)
    result = solve(random_regular_graph(2048, 8, seed=3), seed=3)
    assert result.stats["b0_components"] > 10
    assert kernel_calls["degree_list_surplus"] >= 1
    assert calls["color_against_outside"] == 0


@FAST
@given(
    n=st.sampled_from([12, 40, 120]),
    seed=st.integers(0, 10_000),
    avg=st.sampled_from([2.0, 3.5, 5.0]),
    spare=st.sampled_from([-1, 0, 1]),
)
def test_degree_list_paths_agree_on_sparse_graphs(n, seed, avg, spare, python_twins):
    """Random balls as components, against random partial colorings, with
    palettes from Δ-1 to Δ+1: surplus, tight and infeasible instances."""
    graph = sparse_graph(n, seed, avg)
    max_colors = max(1, graph.max_degree() + spare)
    colors = precolored(graph, seed, max_colors)
    rng = random.Random(seed)
    components = []
    for _ in range(4):
        center = rng.randrange(n)
        ball = bfs_mod.distance_layers(graph, [center], max_depth=rng.choice([0, 1, 2]))
        components.append([v for layer in ball for v in layer][: rng.randint(1, 9)])
    assert_degree_list_pinned(graph, colors, components, max_colors, python_twins)


# -- The marking process (phase 4) --------------------------------------------


def run_marking(graph, h_nodes, colors, p, backoff, seed=11):
    """What phase (4) gives: the selection's survivors and count, then
    ``marking_process``'s outcome, the colors it left and the rng's state
    after it; an error raised stands in for the selection and outcome."""
    colors, rng = list(colors), random.Random(seed)
    try:
        selection = marking_mod._select(graph, h_nodes, list(colors), p, backoff, random.Random(seed))
        outcome = marking_process(graph, h_nodes, colors, p, backoff, rng, RoundLedger())
    except (IndexError, AlgorithmContractError) as error:
        return None, (type(error), str(error)), colors, rng.getstate()
    fields = (outcome.t_nodes, outcome.marked, outcome.initially_selected,
              outcome.backed_off, outcome.no_pair_available)
    return selection, fields, colors, rng.getstate()


def assert_marking_pinned(graph, h_nodes, colors, p, backoff, python_twins):
    got = run_marking(graph, h_nodes, colors, p, backoff)
    assert got == python_twins(run_marking, graph, h_nodes, colors, p, backoff)
    return got


def balls(graph, centers, radius):
    """The nodes within ``radius`` of some center: a sparse H when the
    graph is large."""
    return {v for layer in bfs_mod.distance_layers(graph, centers, max_depth=radius) for v in layer}


MARKING_FAMILIES = {
    "rrg-d3": lambda: random_regular_graph(2000, 3, seed=1),
    "rrg-d4": lambda: random_regular_graph(1500, 4, seed=2),
    "girth9": lambda: high_girth_regular_graph(512, 3, 9, seed=2),
    "torus": lambda: torus_grid(30, 30),
    "sparse": lambda: sparse_graph(1100, 4, 1.8),
}


@pytest.mark.parametrize("family", sorted(MARKING_FAMILIES))
@pytest.mark.parametrize("h_kind", ["full", "random", "sparse"])
def test_marking_kernel_matches_twin(family, h_kind, kernel_calls, python_twins):
    graph = MARKING_FAMILIES[family]()
    rng = random.Random(graph.n)
    if h_kind == "full":
        h_nodes = set(range(graph.n))
    elif h_kind == "random":
        h_nodes = {v for v in range(graph.n) if rng.random() < 0.6}
    else:
        h_nodes = balls(graph, rng.sample(range(graph.n), 6), 3) | set(rng.sample(range(graph.n), 40))
    delta = max(3, graph.max_degree())
    for backoff in (5, 6, 7, 8):
        for p in (0.0, default_selection_probability(delta, backoff), 0.25, 1.0):
            selection, fields, colors, _ = assert_marking_pinned(
                graph, h_nodes, [UNCOLORED] * graph.n, p, backoff, python_twins
            )
            (survivors, selected), (t_nodes, marked, chosen, backed_off, no_pair) = selection, fields
            assert (chosen, backed_off) == (selected, selected - len(survivors))
            assert set(t_nodes) <= set(survivors) and len(t_nodes) + no_pair == len(survivors)
            assert colors.count(1) == len(marked) == 2 * len(t_nodes)
    if native.kernel_status().functions:
        assert kernel_calls["marking_select"] > 0


def test_marking_sparse_h_of_a_large_graph(kernel_calls, python_twins):
    """H a few balls of a large graph, whose set iteration order is not
    ascending: node i of that order draws the i-th coin on both paths."""
    graph = random_regular_graph(20000, 3, seed=3)
    h_nodes = balls(graph, random.Random(4).sample(range(graph.n), 12), 5)
    assert list(h_nodes) != sorted(h_nodes)
    for p in (default_selection_probability(3, 6), 0.05, 0.25):
        selection, fields, _, _ = assert_marking_pinned(
            graph, h_nodes, [UNCOLORED] * graph.n, p, 6, python_twins
        )
        assert selection[1] > 0
    if native.kernel_status().functions:
        assert kernel_calls["marking_select"] > 0


def test_marking_repeated_h_entries(python_twins):
    """H as a list naming every node twice: each entry draws a coin and a
    node is selected once, on both paths."""
    graph = random_regular_graph(400, 3, seed=6)
    for p in (0.02, 0.25):
        selection, fields, _, _ = assert_marking_pinned(
            graph, list(range(graph.n)) * 2, [UNCOLORED] * graph.n, p, 5, python_twins
        )
        assert selection[1] > 0 and len(set(selection[0])) == len(selection[0])


def test_marking_empty_h_draws_nothing(python_twins):
    graph = random_regular_graph(300, 3, seed=5)
    got = assert_marking_pinned(graph, set(), [UNCOLORED] * graph.n, 0.5, 6, python_twins)
    assert got[0] == ([], 0)
    assert got[3] == random.Random(11).getstate()


def test_marking_colored_nodes(python_twins):
    """A colored node outside H changes nothing; one inside H is the same
    error, naming the same node, with nothing drawn or written."""
    graph = random_regular_graph(400, 3, seed=6)
    h_nodes = set(range(100, 400))
    colors = [UNCOLORED] * graph.n
    colors[7] = 2
    got = assert_marking_pinned(graph, h_nodes, colors, 0.1, 6, python_twins)
    assert got[1][2] > 0
    colors[250] = 3
    got = assert_marking_pinned(graph, h_nodes, colors, 0.1, 6, python_twins)
    assert got[1] == (AlgorithmContractError, "marking precondition: node 250 is colored")
    assert got[2] == colors and got[3] == random.Random(11).getstate()


@pytest.mark.parametrize("bad", [-1, 400, 2**31, 2**40])
def test_marking_out_of_range_nodes(bad, python_twins):
    graph = random_regular_graph(400, 3, seed=6)
    colors = [UNCOLORED] * graph.n
    got = assert_marking_pinned(graph, set(range(100, 200)) | {bad}, colors, 0.5, 6, python_twins)
    assert got[1] == (IndexError, f"H node {bad} is out of range for n=400")
    assert got[2] == colors and got[3] == random.Random(11).getstate()
    # Out of range is checked before colors, on both paths.
    colors[150] = 2
    got = assert_marking_pinned(graph, set(range(100, 200)) | {bad}, colors, 0.5, 6, python_twins)
    assert got[1] == (IndexError, f"H node {bad} is out of range for n=400")


@requires_kernel
def test_marking_kernel_reuses_its_mask(python_twins):
    """The kernel's mask is zero on return, so one mask serves call after
    call; each call gives what the twin gives from the same block."""
    graph = random_regular_graph(3000, 3, seed=8)
    offsets, indices = graph.csr()
    mask = array("B", bytes(graph.n))
    kernel = native.kernel("marking_select")
    rng = random.Random(9)
    for seed, p in enumerate((0.01, 0.1, 1.0)):
        h_nodes = {v for v in range(graph.n) if rng.random() < 0.7}
        nodes = array("i", h_nodes)
        block = random.Random(seed).randbytes(8 * len(nodes))
        queue, out = array("i", bytes(4 * len(nodes))), array("i", bytes(4 * len(nodes)))
        selected = ctypes.c_int()
        size = kernel(
            native.address(offsets), native.address(indices), graph.n, None,
            native.address(nodes), len(nodes), block, p, 6,
            native.address(mask), native.address(queue), native.address(out),
            ctypes.byref(selected),
        )
        twin = python_twins(
            marking_mod._select_python, graph, h_nodes, [UNCOLORED] * graph.n, p, 6,
            random.Random(seed),
        )
        assert (out[:size].tolist(), selected.value) == twin
        assert not any(mask)
