"""Structural predicates from Section 2.1 of the paper.

Definitions implemented here:

* **clique / odd cycle** — the two block types allowed in a Gallai tree.
* **Gallai tree** (Definition 7): every maximal 2-connected component is a
  clique or an odd cycle.  By Theorem 8 these are exactly the graphs that
  are *not* degree-choosable.
* **degree-choosable component, DCC** (Definition 9): a node-induced
  subgraph that is 2-connected and neither a clique nor an odd cycle.
* **nice graph** (from [PS95]): a connected graph that is neither a path,
  a cycle, nor a clique.  All nice graphs are Δ-colorable; the paper's
  algorithms assume nice inputs, and :func:`assert_nice` enforces it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import NotNiceGraphError
from repro.graphs.blocks import biconnected_components
from repro.graphs.graph import Graph

__all__ = [
    "is_clique_nodes",
    "is_odd_cycle_nodes",
    "is_complete",
    "is_cycle_graph",
    "is_path_graph",
    "is_nice",
    "assert_nice",
    "is_gallai_tree",
    "is_degree_choosable_component",
    "girth_up_to",
]


def is_clique_nodes(graph: Graph, nodes: Sequence[int]) -> bool:
    """True iff ``nodes`` induce a complete subgraph (K1 and K2 count)."""
    node_list = list(nodes)
    k = len(node_list)
    if k <= 2:
        return True
    # Degree screen first: O(1) per node via the CSR offsets, rejecting
    # almost all non-cliques before any set is built.
    if any(graph.degree(v) < k - 1 for v in node_list):
        return False
    node_set = set(node_list)
    return all(_degree_within(graph, v, node_set) == k - 1 for v in node_list)


def _degree_within(graph: Graph, v: int, node_set: set[int]) -> int:
    """Neighbours of ``v`` inside ``node_set``, from ``v``'s CSR row."""
    return sum(1 for w in graph.neighbors_csr(v) if w in node_set)


def is_odd_cycle_nodes(graph: Graph, nodes: Sequence[int]) -> bool:
    """True iff ``nodes`` induce a chordless cycle of odd length >= 3.

    A triangle is both a clique and an odd cycle; either classification
    keeps it out of the DCC set, which is all the algorithms care about.
    """
    node_list = list(nodes)
    k = len(node_list)
    if k < 3 or k % 2 == 0:
        return False
    if any(graph.degree(v) < 2 for v in node_list):
        return False
    node_set = set(node_list)
    if any(_degree_within(graph, v, node_set) != 2 for v in node_list):
        return False
    # 2-regular induced subgraph: odd cycle iff connected.
    start = node_list[0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.neighbors_csr(u):
            if v in node_set and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == k


def is_complete(graph: Graph) -> bool:
    """True iff the whole graph is a clique (on >= 1 node)."""
    if graph.n < 1:
        return False
    if graph.num_edges != graph.n * (graph.n - 1) // 2:
        return False
    return is_clique_nodes(graph, range(graph.n))


def is_cycle_graph(graph: Graph) -> bool:
    """True iff the whole graph is a single cycle C_n, n >= 3."""
    return _cycle_shaped(graph) and graph.is_connected()


def is_path_graph(graph: Graph) -> bool:
    """True iff the whole graph is a simple path P_n (n >= 1)."""
    return _path_shaped(graph) and graph.is_connected()


def _cycle_shaped(graph: Graph) -> bool:
    """n >= 3 nodes, n edges, all of degree 2: a cycle iff connected."""
    if graph.n < 3 or graph.num_edges != graph.n:
        return False
    return all(graph.degree(v) == 2 for v in range(graph.n))


def _path_shaped(graph: Graph) -> bool:
    """n >= 1 nodes, n - 1 edges, degrees <= 2: a path iff connected."""
    if graph.n == 0 or graph.num_edges != graph.n - 1:
        return False
    if graph.n == 1:
        return True
    degs = graph.degrees()
    return sorted(degs)[:2] == [1, 1] and max(degs) <= 2


def is_nice(graph: Graph) -> bool:
    """Nice graph per [PS95]: connected and not a path, cycle, or clique.

    Scans connectivity once: the path and cycle tests after it are the
    shape tests only.
    """
    return graph.is_connected() and not (
        _path_shaped(graph) or _cycle_shaped(graph) or is_complete(graph)
    )


def assert_nice(graph: Graph) -> None:
    """Raise :class:`NotNiceGraphError` unless ``graph`` is nice.

    The Δ-coloring algorithms require nice graphs: cliques and odd cycles
    are not Δ-colorable (Brooks), and paths/cycles need Ω(n) rounds or
    trivial special-casing, which the callers handle separately.
    """
    if not graph.is_connected():
        raise NotNiceGraphError(
            "graph must be connected; run algorithms per connected component"
        )
    if is_complete(graph):
        raise NotNiceGraphError("complete graphs are not Δ-colorable (Brooks)")
    if _cycle_shaped(graph):
        raise NotNiceGraphError("cycles need special handling (Δ=2 / odd cycle)")
    if _path_shaped(graph):
        raise NotNiceGraphError("paths need special handling (Δ<=2)")


def is_gallai_tree(graph: Graph) -> bool:
    """Definition 7: every block is a clique or an odd cycle.

    The empty graph and edgeless graphs are (vacuously) Gallai trees.  By
    Theorem 8, ``is_gallai_tree(G)`` is equivalent to "G is not
    degree-choosable"; the test suite cross-validates that equivalence by
    brute force on small graphs.
    """
    decomposition = biconnected_components(graph)
    for block in decomposition.blocks:
        if not (is_clique_nodes(graph, block) or is_odd_cycle_nodes(graph, block)):
            return False
    return True


def is_degree_choosable_component(graph: Graph, nodes: Sequence[int]) -> bool:
    """Definition 9: ``nodes`` induce a 2-connected non-clique non-odd-cycle.

    2-connectivity of the induced subgraph is checked via its block
    decomposition (a graph on >= 3 nodes is 2-connected iff it is connected
    and consists of a single block spanning all nodes).
    """
    node_list = sorted(set(nodes))
    if len(node_list) < 4:
        # 2-connected graphs on <=3 nodes are K3/K2/K1: cliques, never DCCs.
        return False
    sub, _ = graph.subgraph(node_list)
    if not sub.is_connected():
        return False
    decomposition = biconnected_components(sub)
    if len(decomposition.blocks) != 1 or len(decomposition.blocks[0]) != sub.n:
        return False
    return not (is_clique_nodes(sub, range(sub.n)) or is_odd_cycle_nodes(sub, range(sub.n)))


def girth_up_to(graph: Graph, cap: int) -> int | None:
    """Length of the shortest cycle, or ``None`` if girth > ``cap``.

    BFS from every node, stopping at depth ``cap``//2 + 1; used by tests and
    the expansion benchmarks to select locally tree-like (DCC-free) regions.
    """
    best: int | None = None
    limit = cap
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] * 2 >= (best if best is not None else limit + 1):
                continue
            for v in graph.adj[u]:
                if v == parent[u]:
                    continue
                if v in dist:
                    cycle_len = dist[u] + dist[v] + 1
                    if cycle_len <= limit and (best is None or cycle_len < best):
                        best = cycle_len
                else:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        if best == 3:
            return 3
    return best
