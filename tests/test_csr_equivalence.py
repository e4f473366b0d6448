"""Property tests: the CSR ``Graph`` agrees with a naive reference.

The CSR rewrite of :mod:`repro.graphs.graph` must be observationally
identical to the obvious adjacency-structure it replaced.  A deliberately
dumb reference implementation (dict of sorted neighbour lists, edge set of
frozensets) is compared against ``Graph`` on degrees, edge sets,
``has_edge``, induced ``subgraph`` and ``connected_components`` across
seeded-random graphs and the structured extremes (star, clique, empty,
isolated nodes).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph, GraphBuilder


class NaiveGraph:
    """Reference implementation: dict-of-sets, no cleverness anywhere."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edge_set = {frozenset(e) for e in edges}
        self.nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])

    def degrees(self) -> list[int]:
        return [len(self.nbrs[v]) for v in range(self.n)]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edge_set

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for start in range(self.n):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.nbrs[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def induced(self, nodes: list[int]) -> "NaiveGraph":
        keep = sorted(set(nodes))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in (tuple(sorted(e)) for e in self.edge_set)
            if u in index and v in index
        ]
        return NaiveGraph(len(keep), edges)


def random_edge_list(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def case_graphs() -> list[tuple[str, int, list[tuple[int, int]]]]:
    cases: list[tuple[str, int, list[tuple[int, int]]]] = [
        ("empty-0", 0, []),
        ("empty-7", 7, []),
        ("single-edge", 2, [(0, 1)]),
        ("star-9", 9, [(0, i) for i in range(1, 9)]),
        ("clique-8", 8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),
        ("isolated-mix", 10, [(2, 5), (5, 9)]),
    ]
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        p = rng.choice([0.05, 0.15, 0.4, 0.8])
        edges = random_edge_list(n, p, rng)
        rng.shuffle(edges)
        cases.append((f"random-{seed}", n, edges))
    return cases


CASES = case_graphs()
CASE_IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,n,edges", CASES, ids=CASE_IDS)
class TestCsrAgreesWithNaive:
    def test_degrees_and_counts(self, name, n, edges):
        graph = Graph(n, edges)
        ref = NaiveGraph(n, edges)
        assert graph.n == ref.n
        assert graph.num_edges == len(ref.edge_set)
        assert graph.degrees() == ref.degrees()
        assert graph.max_degree() == ref.max_degree()
        assert graph.min_degree() == ref.min_degree()
        for v in range(n):
            assert graph.degree(v) == ref.degree(v)
            assert sorted(graph.neighbors(v)) == sorted(ref.nbrs[v])
            assert sorted(graph.neighbors_csr(v)) == sorted(ref.nbrs[v])

    def test_edges_and_has_edge(self, name, n, edges):
        graph = Graph(n, edges)
        ref = NaiveGraph(n, edges)
        assert {frozenset(e) for e in graph.edges()} == ref.edge_set
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert graph.has_edge(u, v) == ref.has_edge(u, v)

    def test_connected_components(self, name, n, edges):
        graph = Graph(n, edges)
        ref = NaiveGraph(n, edges)
        assert graph.connected_components() == sorted(ref.components())
        assert graph.is_connected() == (len(ref.components()) <= 1)

    def test_subgraph(self, name, n, edges):
        graph = Graph(n, edges)
        ref = NaiveGraph(n, edges)
        rng = random.Random(sum(map(ord, name)) * 31 + n)
        for _ in range(3):
            keep = [v for v in range(n) if rng.random() < 0.6]
            sub, originals = graph.subgraph(keep)
            naive_sub = ref.induced(keep)
            assert originals == sorted(set(keep))
            assert sub.n == naive_sub.n
            assert sub.degrees() == naive_sub.degrees()
            assert {frozenset(e) for e in sub.edges()} == naive_sub.edge_set

    def test_builder_and_unchecked_match_checked(self, name, n, edges):
        graph = Graph(n, edges)
        unchecked = Graph.from_edges_unchecked(n, edges)
        builder = GraphBuilder(n)
        for u, v in edges:
            builder.add_edge(u, v)
        built = builder.build()
        for other in (unchecked, built):
            assert other.n == graph.n
            assert other.num_edges == graph.num_edges
            assert other.adj == graph.adj  # identical insertion order too

    def test_from_adjacency_roundtrip(self, name, n, edges):
        graph = Graph(n, edges)
        again = Graph.from_adjacency(graph.adj)
        assert again.degrees() == graph.degrees()
        assert {frozenset(e) for e in again.edges()} == {
            frozenset(e) for e in graph.edges()
        }


class TestValidationStillRejects:
    """The unchecked fast paths must not have weakened the public API."""

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(4, [(0, 1), (2, 3), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_from_adjacency_asymmetric_rejected(self):
        with pytest.raises(GraphError, match="not symmetric"):
            Graph.from_adjacency([[1], []])
        with pytest.raises(GraphError, match="not symmetric"):
            # symmetric edge plus a phantom one-sided entry
            Graph.from_adjacency([[1, 2], [0], [0, 0]])

    def test_builder_rejects_self_loop(self):
        builder = GraphBuilder(3)
        with pytest.raises(GraphError, match="self-loop"):
            builder.add_edge(2, 2)

    def test_builder_dedup(self):
        builder = GraphBuilder(3, dedup=True)
        assert builder.add_edge(0, 1)
        assert not builder.add_edge(1, 0)
        assert builder.has_edge(0, 1)
        assert not builder.has_edge(0, 2)
        assert builder.build().num_edges == 1


class TestVectorizedPathParity:
    """The native kernel must be bit-identical to the pure-Python
    fallbacks — including the shapes that once broke a fast path."""

    def test_linial_with_trailing_isolated_nodes(self, python_twins):
        # Regression: a vectorized round once clamped a trailing
        # zero-degree node's segment sentinel, stealing the previous
        # node's last edge comparison.  The kernel's round must match
        # the scalar twin on the same shape.
        import repro.primitives.linial as linial_mod
        from repro.graphs.generators import random_graph_with_max_degree
        from repro.local.rounds import RoundLedger

        for seed in range(4):
            base = random_graph_with_max_degree(590, 7, 3.5, seed=seed)
            graph = Graph(600, list(base.edges()))  # nodes 590..599 isolated
            native_run = linial_mod.linial_coloring(graph, RoundLedger())
            scalar = python_twins(linial_mod.linial_coloring, graph, RoundLedger())
            assert native_run.colors == scalar.colors
            assert native_run.palette == scalar.palette

    def test_dcc_detection_paths_agree_on_multi_block_cut_vertex(self, detect_python):
        # Node 1 sits in two qualifying blocks (two C4s) with a pendant
        # tree hanging off the core — the shape where block discovery
        # order is delicate.  Both detection paths must pick the same one.
        import repro.core.dcc as dcc_mod

        gadget = [
            (1, 5), (5, 6), (6, 7), (7, 1),
            (1, 2), (2, 3), (3, 4), (4, 1),
            (0, 6),
        ]
        graph = Graph(300, gadget)
        vec = dcc_mod.detect_dccs(graph, 3)
        fallback = detect_python(graph, 3)
        assert vec.dccs == fallback.dccs
        assert vec.selected_by == fallback.selected_by
        assert vec.nodes_in_dccs == fallback.nodes_in_dccs
        assert vec.dccs  # the gadget's DCCs are found at all

    def test_dcc_detection_paths_agree_on_random_graphs(self, detect_python):
        import repro.core.dcc as dcc_mod
        from repro.graphs.generators import random_regular_graph

        for seed in range(3):
            graph = random_regular_graph(400, 6, seed=seed)
            vec = dcc_mod.detect_dccs(graph, 2)
            fallback = detect_python(graph, 2)
            assert vec.dccs == fallback.dccs
            assert vec.selected_by == fallback.selected_by

    def test_dcc_batched_peel_agrees_on_dcc_rich_graphs(self, detect_python):
        # The torus is DCCs-everywhere: every ball survives the cheap
        # rejects, so the native kernel's 2-core peel (not just the skip
        # logic) is what must match the Python twin's per-ball peel.
        import repro.core.dcc as dcc_mod
        from repro.graphs.generators import torus_grid

        for radius in (2, 3):
            graph = torus_grid(20, 20)
            vec = dcc_mod.detect_dccs(graph, radius)
            fallback = detect_python(graph, radius)
            assert vec.dccs == fallback.dccs
            assert vec.selected_by == fallback.selected_by
            assert vec.nodes_in_dccs == fallback.nodes_in_dccs
            assert vec.dccs

    def test_trial_rounds_kernel_matches_python(self, python_twins):
        # list_coloring_random: the native trial round and the pure-Python
        # round consume the same randbytes draw and must commit identical
        # colors in the same number of rounds.
        import random as random_mod

        from repro import native
        from repro.graphs.generators import random_regular_graph, torus_grid
        from repro.graphs.validation import UNCOLORED, validate_coloring
        from repro.local.rounds import RoundLedger
        from repro.primitives.list_coloring import list_coloring_random

        if native.kernel("trial_round") is None:
            pytest.skip("native kernel not loaded on this box")

        def run(graph, palette, seed):
            colors = [UNCOLORED] * graph.n
            rng = random_mod.Random(seed)
            ledger = RoundLedger()
            stats = list_coloring_random(
                graph, colors, set(range(graph.n)), palette, ledger, rng
            )
            return colors, stats, ledger.total_rounds, rng.random()

        workloads = [
            (random_regular_graph(300, 5, seed=1), 6),
            (torus_grid(17, 19), 5),
        ]
        for graph, palette in workloads:
            for seed in range(3):
                kernel = run(graph, palette, seed)
                assert kernel == python_twins(run, graph, palette, seed)
                validate_coloring(graph, kernel[0], max_colors=palette)
