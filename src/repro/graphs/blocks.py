"""Biconnected components (blocks) and cut vertices.

Gallai trees (Definition 7) are graphs whose maximal 2-connected components
are all cliques or odd cycles, and Theorem 8 (Erdős–Rubin–Taylor / Vizing)
says these are exactly the graphs that are *not* degree-choosable.  Block
decomposition is therefore the backbone of both DCC detection (a block that
is neither a clique nor an odd cycle is a degree-choosable component,
Definition 9) and of the constructive degree-list coloring in
``repro.core.degree_choosable``.

The implementation is an iterative Hopcroft–Tarjan DFS (no recursion, so it
handles blocks of ten of thousands of nodes without hitting Python's
recursion limit).
"""

from __future__ import annotations

from repro.graphs.graph import Graph

__all__ = [
    "biconnected_components",
    "blocks_through",
    "BlockDecomposition",
]


class BlockDecomposition:
    """Result of a block decomposition.

    Attributes
    ----------
    blocks:
        List of blocks; each block is a sorted list of the nodes it spans.
        An isolated vertex forms no block; a bridge edge forms a 2-node
        block (a K2, which counts as a clique).
    cut_vertices:
        Set of articulation points.
    blocks_of_node:
        ``blocks_of_node[v]`` lists indices (into ``blocks``) of the blocks
        containing ``v``; non-cut vertices belong to at most one block.
    """

    def __init__(self, blocks: list[list[int]], cuts: set[int], n: int):
        self.blocks = blocks
        self.cut_vertices = cuts
        self.blocks_of_node: list[list[int]] = [[] for _ in range(n)]
        for idx, block in enumerate(blocks):
            for v in block:
                self.blocks_of_node[v].append(idx)


def biconnected_components(graph: Graph) -> BlockDecomposition:
    """Compute all blocks (maximal 2-connected subgraphs) of ``graph``.

    Iterative Hopcroft–Tarjan: classic low-link computation with an explicit
    DFS stack and an edge stack; every time a child subtree cannot reach
    above the current vertex, the edges accumulated since entering the child
    are popped as one block.
    """
    n = graph.n
    adj = graph.adj
    disc = [0] * n        # discovery time, 0 = unvisited
    low = [0] * n
    timer = 1
    cuts: set[int] = set()
    blocks: list[list[int]] = []
    edge_stack: list[tuple[int, int]] = []

    for root in range(n):
        if disc[root]:
            continue
        # Each stack frame: [vertex, parent, neighbour iterator,
        # tree-edge-to-parent not yet skipped].  Simple graphs store the
        # parent exactly once per row, so a boolean suffices to skip the
        # tree edge exactly once.
        stack: list[list] = [[root, -1, iter(adj[root]), False]]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            frame = stack[-1]
            u, parent = frame[0], frame[1]
            v = next(frame[2], -1)
            if v >= 0:
                if v == parent and not frame[3]:
                    frame[3] = True
                    continue
                if not disc[v]:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append([v, u, iter(adj[v]), False])
                    if u == root:
                        root_children += 1
                elif disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            else:
                stack.pop()
                if parent != -1:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        # parent is a cut vertex (unless it is the root with
                        # a single child, handled below) and the edges since
                        # (parent, u) form a block.
                        block_nodes: set[int] = set()
                        while edge_stack:
                            a, b = edge_stack[-1]
                            if disc[a] >= disc[u]:
                                edge_stack.pop()
                                block_nodes.add(a)
                                block_nodes.add(b)
                            else:
                                break
                        if edge_stack and edge_stack[-1] == (parent, u):
                            edge_stack.pop()
                        block_nodes.add(parent)
                        block_nodes.add(u)
                        blocks.append(sorted(block_nodes))
                        if parent != root or root_children > 1:
                            cuts.add(parent)
        # Root cut status was handled inline via root_children.
    return BlockDecomposition(blocks, cuts, n)


def blocks_through(
    graph: Graph,
    node: int | None,
    members: list[int],
    mask: bytearray | None = None,
    scratch: tuple[list[int], list[int]] | None = None,
) -> list[list[int]]:
    """Blocks of the subgraph induced by ``members`` that contain ``node``
    (pass ``node=None`` for *all* blocks, in the same discovery order —
    filtering the full list by membership afterwards is exactly
    equivalent, which is what lets DCC detection share one decomposition
    between every node of a common core).

    Runs Hopcroft–Tarjan directly on the original labels, restricted to the
    member set — no induced subgraph is materialised.  This is the DCC
    detection fast path: each detecting node only needs the blocks *through
    itself* inside its ball.  Blocks are returned in the same discovery
    order that :func:`biconnected_components` would produce on the
    relabeled induced subgraph rooted at ``min(members)`` (relabeling by
    ascending original id preserves DFS order), so callers iterating "the
    first acceptable block" behave identically on either path.

    ``members`` need not induce a connected subgraph: roots are taken in
    ascending member order, exactly like the relabeled decomposition.
    Tight-loop callers pass ``mask`` (a length-n ``bytearray`` with exactly
    the member bits set) and ``scratch`` (two length-n zeroed int lists,
    used for discovery/low-link times); both are restored to their zeroed
    state for the member entries before returning, so one allocation
    serves every ball of a detection sweep.
    """
    n = graph.n
    if mask is None:
        mask = bytearray(n)
        for v in members:
            mask[v] = 1
    if scratch is None:
        disc: list[int] = [0] * n
        low: list[int] = [0] * n
    else:
        disc, low = scratch
    adj = graph.adj
    timer = 1
    found: list[list[int]] = []
    edge_stack: list[tuple[int, int]] = []
    for root in sorted(members):
        if disc[root]:
            continue
        stack: list[list] = [[root, -1, iter(adj[root]), False]]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            frame = stack[-1]
            u, parent = frame[0], frame[1]
            v = next(frame[2], -1)
            if v >= 0:
                if not mask[v]:
                    continue
                if v == parent and not frame[3]:
                    frame[3] = True
                    continue
                dv = disc[v]
                if not dv:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append([v, u, iter(adj[v]), False])
                elif dv < disc[u]:
                    edge_stack.append((u, v))
                    if dv < low[u]:
                        low[u] = dv
            else:
                stack.pop()
                if parent != -1:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        block_nodes: set[int] = set()
                        du = disc[u]
                        while edge_stack:
                            a, b = edge_stack[-1]
                            if disc[a] >= du:
                                edge_stack.pop()
                                block_nodes.add(a)
                                block_nodes.add(b)
                            else:
                                break
                        if edge_stack and edge_stack[-1] == (parent, u):
                            edge_stack.pop()
                        block_nodes.add(parent)
                        block_nodes.add(u)
                        if node is None or node in block_nodes:
                            found.append(sorted(block_nodes))
    for v in members:
        disc[v] = 0
        low[v] = 0
    return found
