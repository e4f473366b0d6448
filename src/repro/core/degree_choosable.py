"""Constructive degree-list coloring (Theorem 8, Erdős–Rubin–Taylor).

A *degree-list instance* assigns every node v a list with
|L(v)| >= deg(v).  Theorem 8 says such an instance on a connected graph is
always solvable unless the graph is a Gallai tree and every list is tight;
this module provides the constructive side, which the paper leans on in
three places:

* phase (9): Δ-coloring the selected degree-choosable components of the
  base layer B0 ("brute forcing each component" — we do it in polynomial
  time instead);
* phase (5) of Section 4.3: coloring the DCCs in layer D_0 of the small
  components;
* the distributed Brooks' theorem (Theorem 5): after the token walk
  reaches a DCC, the DCC is uncolored and recolored compatibly.

The algorithm (classic, following [ERT79] / Lovász's Brooks proof):

1. **Surplus** — if some v has |L(v)| > deg(v), color greedily in order of
   decreasing BFS distance from v (every other node still has its BFS
   parent uncolored when processed, v's surplus absorbs the final step).
2. **Block reduction** — with all lists tight, find a block B* that is a
   DCC (exists unless the graph is a Gallai tree); color everything
   outside B* farthest-first toward B*, then recurse on B* (whose lists
   stay degree-feasible).
3. **2-connected, tight lists**:
   a. unequal lists on an edge (u, w): color w with some c ∈ L(w)∖L(u),
      then farthest-first toward u; u ends with a spare color.
   b. equal lists everywhere ⇒ k-regular with k=|L|.  k=2 is a cycle
      (even: alternate; odd: infeasible).  For k >= 3 find the Brooks
      gadget: v with two non-adjacent neighbours a, b such that
      G−{a, b} is connected; color a, b identically and run
      farthest-first toward v — v sees at most deg−1 distinct colors.
4. A bounded backtracking search backs up the rare inputs outside the
   callers' guarantees (tiny Gallai-tree instances that happen to be
   feasible for their particular lists).

Raises :class:`InfeasibleListColoringError` when no coloring exists.

Phase (9) colors its components through
:meth:`repro.primitives.list_coloring.ColorWorkspace.degree_list`.  With
the native kernel loaded, case 1 of :func:`color_against_outside` runs
there (``degree_list_surplus`` in ``repro/kernel.c``: same lists, root,
BFS order and greedy step, its result checked before it is written);
a component in any other case, or one that fails the check, is handed
back to :func:`color_against_outside` here, which is also the whole
path without the kernel.  Every other caller uses this module directly.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable

from repro.errors import InfeasibleListColoringError
from repro.graphs.blocks import biconnected_components
from repro.graphs.graph import Graph
from repro.graphs.properties import is_clique_nodes, is_odd_cycle_nodes

__all__ = ["backtracking_list_color", "color_against_outside", "degree_list_color"]


def color_against_outside(
    graph: Graph, colors: list[int], nodes: Iterable[int], max_colors: int
) -> list[int]:
    """Color the subgraph induced by ``nodes`` in place as one degree-list
    instance against its colored surroundings.

    Each node's list is ``1..max_colors`` minus the colors its colored
    neighbours outside ``nodes`` wear; the nodes' own colors are ignored.
    Each member's row is read once, through ``neighbors_csr``, for both
    its induced row (as :meth:`Graph.subgraph` builds it) and its list,
    so no graph-wide cache is built and a
    :class:`~repro.graphs.dynamic.DynamicGraph` is not compacted.
    Returns the nodes in ascending order.  Raises
    :class:`InfeasibleListColoringError`, or ``IndexError`` naming a node
    outside ``0..n-1``, with ``colors`` untouched.
    """
    originals = sorted(set(nodes))
    for v in originals[:1] + originals[-1:]:  # sorted: the extremes
        if not 0 <= v < graph.n:
            raise IndexError(f"node {v} is out of range for n={graph.n}")
    index = {v: i for i, v in enumerate(originals)}
    palette = range(1, max_colors + 1)
    offsets = array("i", [0])
    indices = array("i")
    lists = []
    for u in originals:
        taken = set()
        for w in graph.neighbors_csr(u):
            i = index.get(w)
            if i is None:
                taken.add(colors[w])
            else:
                indices.append(i)
        offsets.append(len(indices))
        lists.append({c for c in palette if c not in taken})
    sub = Graph._from_csr(len(originals), offsets, indices, len(indices) // 2)
    assignment = degree_list_color(sub, lists)
    for i, u in enumerate(originals):
        colors[u] = assignment[i]
    return originals


def degree_list_color(graph: Graph, lists: list[set[int]]) -> list[int]:
    """Solve a degree-list instance on a connected graph.

    Parameters
    ----------
    graph:
        Connected graph (nodes ``0..n-1``; callers relabel components).
    lists:
        ``lists[v]`` is the set of allowed colors; must satisfy
        ``len(lists[v]) >= graph.degree(v)``.  Colors are 1-based: 0 is
        ``UNCOLORED``, the solver's sentinel, and no list may hold a
        color below 1.

    Returns the color assignment (``result[v] ∈ lists[v]``) or raises
    :class:`InfeasibleListColoringError`.  Raises ``ValueError`` naming
    the node and the color when a list holds a color below 1.
    """
    n = graph.n
    if n == 0:
        return []
    for v in range(n):
        lowest = min(lists[v], default=1)
        if lowest < 1:
            raise ValueError(f"node {v}: list color {lowest} < 1 (colors are 1-based)")
    for v in range(n):
        if len(lists[v]) < graph.degree(v):
            raise InfeasibleListColoringError(
                f"node {v}: {len(lists[v])} colors < degree {graph.degree(v)}"
            )
    colors = [0] * n
    _solve(graph, [set(lst) for lst in lists], colors, list(range(n)))
    _verify(graph, lists, colors)
    return colors


def _verify(graph: Graph, lists: list[set[int]], colors: list[int]) -> None:
    for v in range(graph.n):
        if colors[v] not in lists[v]:
            raise AssertionError(f"internal: node {v} colored outside its list")
    for u, v in graph.edges():
        if colors[u] == colors[v]:
            raise AssertionError(f"internal: edge ({u},{v}) monochromatic")


def _solve(graph: Graph, lists: list[set[int]], colors: list[int], nodes: list[int]) -> None:
    """Color ``nodes`` (a connected, currently uncolored node set), writing
    into ``colors``.

    All case analysis happens on *effective* lists — the caller-supplied
    list minus the colors of already-colored neighbours (block reduction
    and the Brooks walk both create such neighbours).  The degree-list
    precondition guarantees ``|eff(v)| >= degree_in(v)`` for every v in the
    set.  Recursion happens only through block reduction (depth = block
    tree depth).
    """
    node_set = set(nodes)
    degree_in = {v: sum(1 for u in graph.adj[v] if u in node_set) for v in nodes}
    eff = {v: _available(graph, lists, colors, v) for v in nodes}
    for v in nodes:
        if len(eff[v]) < degree_in[v]:
            raise InfeasibleListColoringError(
                f"node {v}: effective list {len(eff[v])} < inside-degree {degree_in[v]}"
            )

    # Case 0: singletons.
    if len(nodes) == 1:
        v = nodes[0]
        if not eff[v]:
            raise InfeasibleListColoringError(f"node {v} has an empty list")
        colors[v] = min(eff[v])
        return

    # Case 1: surplus node.
    for v in nodes:
        if len(eff[v]) > degree_in[v]:
            _greedy_toward(graph, lists, colors, node_set, root=v)
            return

    # All lists tight within the set.  Find a DCC block.
    sub, originals = graph.subgraph(nodes)
    decomposition = biconnected_components(sub)
    dcc_block: list[int] | None = None
    for block in decomposition.blocks:
        if not (
            is_clique_nodes(sub, block) or is_odd_cycle_nodes(sub, block)
        ):
            dcc_block = [originals[i] for i in block]
            break

    if dcc_block is None:
        # Gallai tree with tight lists: usually infeasible, but specific
        # list assignments can still work — bounded backtracking decides.
        result = backtracking_list_color(graph, lists, colors, nodes)
        if result is None:
            raise InfeasibleListColoringError(
                "Gallai tree with tight lists admits no coloring"
            )
        return

    if len(dcc_block) < len(nodes):
        # Case 2: block reduction — peel everything outside B* toward it.
        _greedy_toward_set(graph, lists, colors, node_set, target=set(dcc_block))
        _solve(graph, lists, colors, sorted(dcc_block))
        return

    # Case 3: 2-connected with tight lists.
    _solve_two_connected(graph, lists, colors, nodes, eff)


def _available(graph: Graph, lists: list[set[int]], colors: list[int], v: int) -> set[int]:
    """v's list minus the colors of its already-colored neighbours."""
    taken = {colors[u] for u in graph.adj[v] if colors[u] != 0}
    return lists[v] - taken


def _greedy_toward(
    graph: Graph,
    lists: list[set[int]],
    colors: list[int],
    node_set: set[int],
    root: int,
) -> None:
    """Greedy farthest-first toward ``root`` (surplus case 1)."""
    order = _bfs_order(graph, node_set, {root})
    for v in reversed(order):
        options = _available(graph, lists, colors, v)
        if not options:
            raise InfeasibleListColoringError(f"greedy ran out of colors at node {v}")
        colors[v] = min(options)


def _greedy_toward_set(
    graph: Graph,
    lists: list[set[int]],
    colors: list[int],
    node_set: set[int],
    target: set[int],
) -> None:
    """Color ``node_set - target`` farthest-first toward ``target``."""
    order = _bfs_order(graph, node_set, target)
    for v in reversed(order):
        if v in target:
            continue
        options = _available(graph, lists, colors, v)
        if not options:
            raise InfeasibleListColoringError(f"greedy ran out of colors at node {v}")
        colors[v] = min(options)


def _bfs_order(graph: Graph, node_set: set[int], sources: set[int]) -> list[int]:
    """Nodes of ``node_set`` in BFS order from ``sources`` (closest first).

    Reversing it yields the farthest-first greedy order in which every
    non-source node still has an uncolored neighbour strictly closer to
    the sources when its turn comes.
    """
    order = []
    seen = set()
    queue: deque[int] = deque()
    for s in sorted(sources):
        if s in node_set:
            seen.add(s)
            queue.append(s)
            order.append(s)
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if w in node_set and w not in seen:
                seen.add(w)
                queue.append(w)
                order.append(w)
    if len(order) != len(node_set):
        raise AssertionError("node set was not connected to the sources")
    return order


def _solve_two_connected(
    graph: Graph,
    lists: list[set[int]],
    colors: list[int],
    nodes: list[int],
    eff: dict[int, set[int]],
) -> None:
    node_set = set(nodes)
    adj_sets = graph.adjacency_sets()

    # Case 3a: an edge with unequal effective lists.
    for u in nodes:
        for w in adj_sets[u]:
            if w in node_set and eff[w] - eff[u]:
                c = min(eff[w] - eff[u])
                colors[w] = c
                _greedy_toward(graph, lists, colors, node_set - {w}, root=u)
                return

    # Effective lists are all equal; the instance is k-regular inside the
    # set with k = |eff|.
    k = len(eff[nodes[0]])
    if k == 2:
        _color_even_cycle(graph, colors, nodes, sorted(eff[nodes[0]]))
        return

    # Clique on k+1 nodes with k colors is infeasible.
    if is_clique_nodes(graph, nodes):
        raise InfeasibleListColoringError("tight clique instance is infeasible")

    gadget = _find_brooks_gadget(graph, node_set, adj_sets)
    if gadget is None:
        # Should be impossible for 2-connected non-clique non-odd-cycle
        # graphs; keep a backtracking escape hatch for safety.
        result = backtracking_list_color(graph, lists, colors, nodes)
        if result is None:
            raise InfeasibleListColoringError("no Brooks gadget and no coloring")
        return
    v, a, b = gadget
    common = eff[a] & eff[b]
    c = min(common)  # effective lists are equal, so any color is common
    colors[a] = c
    colors[b] = c
    _greedy_toward(graph, lists, colors, node_set - {a, b}, root=v)


def _color_even_cycle(
    graph: Graph, colors: list[int], nodes: list[int], palette: list[int]
) -> None:
    """Tight equal 2-lists on a 2-regular connected set: an even cycle
    alternates the two colors; an odd cycle is infeasible."""
    if len(nodes) % 2 == 1:
        raise InfeasibleListColoringError("odd cycle with tight equal 2-lists")
    start = nodes[0]
    node_set = set(nodes)
    previous, current = None, start
    index = 0
    while True:
        colors[current] = palette[index % 2]
        nxt = next(
            (
                u
                for u in graph.adj[current]
                if u in node_set and u != previous and colors[u] == 0
            ),
            None,
        ) if index < len(nodes) - 1 else None
        if nxt is None:
            break
        previous, current = current, nxt
        index += 1


def _find_brooks_gadget(
    graph: Graph, node_set: set[int], adj_sets: list[set[int]]
) -> tuple[int, int, int] | None:
    """Find (v, a, b): a, b non-adjacent neighbours of v with the induced
    graph minus {a, b} still connected.

    Classic existence: every 2-connected non-complete graph with min
    degree >= 3 contains such a triple.  The search tries candidate
    centers in id order; the connectivity check is O(m) and the first few
    candidates almost always succeed, so the typical cost is linear.
    """
    nodes_sorted = sorted(node_set)
    for v in nodes_sorted:
        neighbors = [u for u in adj_sets[v] if u in node_set]
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                if b in adj_sets[a]:
                    continue
                if len(graph.connected_components(node_set - {a, b})) <= 1:
                    return (v, a, b)
    return None


def backtracking_list_color(
    graph: Graph,
    lists: list[set[int]],
    colors: list[int],
    nodes: list[int],
    step_budget: int = 500_000,
) -> list[int] | None:
    """Exhaustive search with forward checking (MRV order), bounded by
    ``step_budget`` expansions.

    Used (a) as the decision procedure for tight Gallai-tree instances
    that may or may not be feasible, and (b) as a safety net behind the
    constructive cases.  Returns the completed ``colors`` or None.
    """
    domains = {v: sorted(_available(graph, lists, colors, v)) for v in nodes if colors[v] == 0}
    assignment: dict[int, int] = {}
    steps = 0

    def choose() -> int | None:
        best, best_size = None, None
        for v, dom in domains.items():
            if v in assignment:
                continue
            live = [c for c in dom if _ok(v, c)]
            if best_size is None or len(live) < best_size:
                best, best_size = v, len(live)
        return best

    def _ok(v: int, c: int) -> bool:
        return all(assignment.get(u) != c for u in graph.adj[v])

    def search() -> bool:
        nonlocal steps
        steps += 1
        if steps > step_budget:
            raise InfeasibleListColoringError(
                "backtracking budget exceeded (instance too large for the fallback)"
            )
        v = choose()
        if v is None:
            return True
        for c in domains[v]:
            if _ok(v, c):
                assignment[v] = c
                if search():
                    return True
                del assignment[v]
        return False

    if not search():
        return None
    for v, c in assignment.items():
        colors[v] = c
    return colors
