"""Fast paths of the Theorem 3 solve vs their pure-Python twins.

Each vectorized kernel on the solve path keeps its Python twin as the
fallback (reprolint RPL007); these tests pin the pairs to each other on
shapes chosen to hit their edge cases, at sizes on both sides of every
numpy-vs-Python threshold:

* ``Graph.is_connected`` — disconnected graphs, isolated nodes, graphs
  too deep for the level-synchronous search;
* ``validate_coloring`` — the numpy verdict matches the Python pass, and
  the ``ColoringError.violations`` a caller sees are the Python pass's;
* ``bfs_distances`` / ``distance_layers`` — several sources, ``max_depth``;
* ``detect_dccs`` — the native C ball pass (``dcc_kernel.c``: ball, tree
  reject, 2-core peel, single-cycle flag, resumable output) vs its lazy
  per-ball Python twin, on tori, planted 4- and 5-cycles and theta
  graphs, girth-9 graphs, Gallai trees, disconnected graphs, ``active=``
  subsets, small ``n`` and a one-row output buffer, with every selection
  checked against Definition 9 independently.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dcc as dcc_mod
from repro.core import native
from repro.errors import ColoringError
from repro.graphs import bfs as bfs_mod
from repro.graphs import validation as validation_mod
from repro.graphs.generators import (
    cycle_graph,
    disjoint_union,
    high_girth_regular_graph,
    path_graph,
    random_gallai_tree,
    random_graph_with_max_degree,
    random_regular_graph,
    torus_grid,
)
from repro.graphs.graph import Graph
from repro.graphs.properties import is_degree_choosable_component

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # the numpy-free CI leg: every twin is the Python one
    HAVE_NUMPY = False

# Sizes straddling validation.VECTOR_MIN_NODES (128) and
# bfs.VECTOR_MIN_NODES (512).
SIZES = [40, 127, 128, 255, 256, 511, 512, 1100]
FAST = settings(max_examples=25, deadline=None)


def test_thresholds_are_the_measured_ones():
    assert validation_mod.VECTOR_MIN_NODES == 128
    assert bfs_mod.VECTOR_MIN_NODES == 512


def sparse_graph(n: int, seed: int, avg_degree: float) -> Graph:
    """Irregular, often disconnected, usually with isolated nodes."""
    return random_graph_with_max_degree(n, 6, avg_degree, seed=seed)


class TestIsConnected:
    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([0.5, 1.8, 3.0, 5.0]),
    )
    def test_twins_agree(self, n, seed, avg):
        graph = sparse_graph(n, seed, avg)
        expected = graph._is_connected_python()
        vectorized = graph._is_connected_vectorized()
        assert vectorized is None or vectorized == expected
        assert graph.is_connected() == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_isolated_node_disconnects(self, n):
        base = random_regular_graph(n, 4, seed=n)
        graph = Graph(base.n + 1, list(base.edges()))
        assert base._is_connected_vectorized() in (None, True)
        assert base.is_connected()
        assert graph._is_connected_vectorized() in (None, False)
        assert not graph.is_connected()

    def test_two_components(self):
        halves = [random_regular_graph(300, 5, seed=i) for i in range(2)]
        graph = disjoint_union(halves)
        assert graph._is_connected_vectorized() is (False if HAVE_NUMPY else None)
        assert not graph.is_connected()

    @pytest.mark.parametrize("make", [cycle_graph, path_graph])
    def test_deep_graphs_fall_back(self, make):
        graph = make(3000)
        assert graph._is_connected_vectorized() is None  # > VECTOR_MAX_LEVELS
        assert graph.is_connected()


def random_coloring(rng: random.Random, n: int, palette: int, defects: int):
    """A coloring over 0..palette+1 (so uncolored and out-of-palette
    entries occur) with ``defects`` extra random entries."""
    colors = [rng.randrange(1, palette + 1) for _ in range(n)]
    for _ in range(defects):
        colors[rng.randrange(n)] = rng.randrange(-1, palette + 2)
    return colors


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
    def test_twins_agree_and_messages_match(self, n, seed, defects, allow_partial, capped):
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
        assert validation_mod._validate_coloring_vectorized(
            graph, colors, max_colors, allow_partial
        ) == (HAVE_NUMPY and expected is None)
        try:
            validation_mod.validate_coloring(
                graph, colors, max_colors=max_colors, allow_partial=allow_partial
            )
        except ColoringError as exc:
            assert exc.violations == expected
        else:
            assert expected is None

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
        assert not validation_mod._validate_coloring_vectorized(graph, colors, None, False)
        validation_mod.validate_coloring(graph, colors)  # the Python pass accepts it
        colors[0] = 0.5
        with pytest.raises(ColoringError) as caught:
            validation_mod.validate_coloring(graph, colors)
        assert caught.value.violations == ["node 0 has out-of-palette color 0.5"]


class TestBreadthFirst:
    @FAST
    @given(
        n=st.sampled_from(SIZES),
        seed=st.integers(0, 10_000),
        avg=st.sampled_from([1.5, 3.0, 5.0]),
        num_sources=st.sampled_from([1, 2, 7, 40]),
        max_depth=st.sampled_from([None, 0, 1, 3, 10]),
    )
    def test_twins_agree(self, n, seed, avg, num_sources, max_depth):
        rng = random.Random(seed)
        graph = sparse_graph(n, seed, avg)
        sources = [rng.randrange(n) for _ in range(num_sources)]  # repeats too
        dist = bfs_mod._bfs_distances_python(graph, sources, max_depth, None)
        layers = bfs_mod._distance_layers_python(graph, sources, max_depth, None)
        vec_dist = bfs_mod._bfs_distances_vectorized(graph, sources, max_depth)
        vec_layers = bfs_mod._distance_layers_vectorized(graph, sources, max_depth)
        assert vec_dist is None or vec_dist == dist
        assert vec_layers is None or vec_layers == layers
        assert bfs_mod.bfs_distances(graph, iter(sources), max_depth=max_depth) == dist
        assert bfs_mod.distance_layers(graph, set(sources), max_depth=max_depth) == layers

    def test_deep_search_falls_back(self):
        graph = path_graph(2000)
        assert bfs_mod.frontier_levels(graph, [0, 1999], None) is None
        dist = bfs_mod.bfs_distances(graph, [0, 1999])
        assert dist == [min(v, 1999 - v) for v in range(2000)]
        # Bounded depth stays vectorized on the same graph.
        assert (bfs_mod.frontier_levels(graph, [0, 1999], 5) is not None) == HAVE_NUMPY

    def test_only_searches_that_reach_far_are_vectorized(self, monkeypatch):
        graph = random_regular_graph(4096, 8, seed=2)

        def vectorized(*args):
            raise LookupError("numpy path taken")

        monkeypatch.setattr(bfs_mod, "_bfs_distances_vectorized", vectorized)
        bfs_mod.bfs_distances(graph, [0, 1], max_depth=2)  # reach ~100 nodes
        with pytest.raises(LookupError):
            bfs_mod.bfs_distances(graph, range(0, 4096, 16), max_depth=3)
        with pytest.raises(LookupError):
            bfs_mod.bfs_distances(graph, [0, 1])  # unbounded

    def test_out_of_range_source_keeps_python_semantics(self):
        graph = random_regular_graph(300, 4, seed=1)
        assert bfs_mod.frontier_levels(graph, [0, 300], None) is None
        with pytest.raises(IndexError):
            bfs_mod.bfs_distances(graph, [0, 300])


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
    native.dcc_kernel() is None, reason="native DCC kernel not loaded on this box"
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


@requires_kernel
def test_dcc_detection_tiny_output_capacity(monkeypatch, detect_python):
    """One output row per kernel call: every row goes through the resume
    path, including rows whose core must be recomputed."""
    graph = planted(
        high_girth_regular_graph(400, 3, 9, seed=2),
        [theta_edges(0, (2, 2, 3)), theta_edges(0, (3, 3, 3))],
        3,
    )
    expected = detect_python(graph, 3)
    calls = []
    kernel = native.dcc_kernel()

    def counting(*args):
        calls.append(args[6])  # the start position
        return kernel(*args)

    monkeypatch.setattr(dcc_mod, "_OUT_ROWS", 1)
    monkeypatch.setattr(native, "dcc_kernel", lambda: counting)
    assert_same_detection(dcc_mod.detect_dccs(graph, 3), expected)
    assert expected.dccs
    assert len(calls) > len(expected.dccs)
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
    assert not any(deg) and not any(scratch.mask)
    assert not any(scratch.scratch[0]) and not any(scratch.scratch[1])
    second = dcc_mod.detect_dccs(graph, 2, scratch=scratch)
    assert scratch.kernel_buffers() is buffers
    assert_same_detection(first, second)
