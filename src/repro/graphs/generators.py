"""Graph generators: the workloads for tests and benchmarks.

The paper's algorithms target *nice* graphs (connected, not a path / cycle /
clique) with maximum degree Δ >= 3.  The generators here cover the regimes
its analysis distinguishes:

* **Random Δ-regular graphs** (configuration model) — the canonical "hard"
  instance: locally tree-like, so almost no node sees a small
  degree-choosable component and the shattering machinery (phases 4-6) does
  all the work.  Used by experiments E1, E2, E4, E6, E7.
* **Torus grids / hypercubes** — structured regular graphs with many short
  even cycles, i.e. DCCs everywhere; the DCC-removal phases (1-3) do all the
  work.  Good contrast workload.
* **Gallai trees** — graphs with *no* DCC at all (every block a clique or
  odd cycle); the adversarial regime for degree-choosability and the
  negative instances for property tests of Theorem 8.
* **Irregular random graphs with a degree cap** — exercise boundary nodes
  (degree < Δ), which every phase must treat as "free" slack.

All generators take an explicit ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import random
import sys
from array import array

from repro.errors import GraphError
from repro.graphs.graph import Graph, GraphBuilder

__all__ = [
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "complete_graph_minus_edge",
    "torus_grid",
    "hypercube",
    "random_regular_graph",
    "random_graph_with_max_degree",
    "random_tree",
    "random_gallai_tree",
    "random_nice_graph",
    "disjoint_union",
]


def cycle_graph(n: int) -> Graph:
    """The cycle C_n (n >= 3)."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path P_n (n >= 1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """The clique K_n."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_graph_minus_edge(n: int) -> Graph:
    """K_n minus one edge: the smallest nice graph of degree Δ = n-1 family.

    For n >= 4 this is a single DCC (2-connected, not a clique, not an odd
    cycle), so it Δ-colors through pure degree-choosability — a useful unit
    test for the ERT colorer.
    """
    if n < 3:
        raise GraphError("need n >= 3")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
    return Graph(n, edges)


def torus_grid(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus: 4-regular, vertex-transitive, girth 4
    (for rows, cols >= 5), hence DCCs (4-cycles) everywhere."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows, cols >= 3")
    n = rows * cols
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            for w in (right, down):
                if v != w:
                    edges.add((min(v, w), max(v, w)))
    return Graph.from_edges_unchecked(n, sorted(edges))


def hypercube(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube: 2^dim nodes, Δ = dim, girth 4."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph.from_edges_unchecked(n, edges)


def random_regular_graph(n: int, d: int, seed: int = 0, max_restarts: int = 200) -> Graph:
    """Random ``d``-regular simple graph via the configuration model.

    Pairs up ``n*d`` half-edges uniformly at random and retries the whole
    pairing whenever it produces a self-loop or parallel edge.  For d << n
    the acceptance probability is roughly ``exp(-(d^2-1)/4)``, so a few
    dozen restarts suffice for every d used in the benchmarks; a local
    repair pass (re-pairing only conflicting half-edges) keeps the restart
    count low for larger d.

    Raises :class:`GraphError` when ``n*d`` is odd or ``d >= n``.
    """
    if d < 0 or d >= n:
        raise GraphError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    rng = random.Random(seed)
    for _ in range(max_restarts):
        edges = _configuration_model_attempt(n, d, rng)
        if edges is not None:
            return Graph.from_edges_unchecked(n, edges)
    # Dense/small cases where stub pairing keeps colliding: start from a
    # circulant d-regular graph and randomize with double edge swaps.
    return _circulant_with_swaps(n, d, rng)


def _circulant_with_swaps(n: int, d: int, rng: random.Random) -> Graph:
    """Deterministic circulant d-regular graph randomized by 2-opt swaps."""
    edges: set[tuple[int, int]] = set()
    half = d // 2
    for v in range(n):
        for offset in range(1, half + 1):
            u = (v + offset) % n
            edges.add((min(v, u), max(v, u)))
    if d % 2 == 1:
        for v in range(n // 2):
            u = v + n // 2
            edges.add((min(v, u), max(v, u)))
    edge_list = sorted(edges)
    for _ in range(10 * len(edge_list)):
        i, j = rng.randrange(len(edge_list)), rng.randrange(len(edge_list))
        (u, v), (x, y) = edge_list[i], edge_list[j]
        if len({u, v, x, y}) < 4:
            continue
        a, b = (min(u, x), max(u, x)), (min(v, y), max(v, y))
        if a in edges or b in edges:
            continue
        edges.discard((min(u, v), max(u, v)))
        edges.discard((min(x, y), max(x, y)))
        edges.add(a)
        edges.add(b)
        edge_list[i], edge_list[j] = a, b
    return Graph.from_edges_unchecked(n, sorted(edges))


def _shuffle_order(rng: random.Random, count: int) -> list[int]:
    """Permutation of ``range(count)`` from one ``rng.randbytes`` draw:
    every position gets a little-endian 64-bit key from the byte stream,
    and a stable sort by key orders them (ties, if any, break by
    position)."""
    keys = array("Q")  # 8-byte items
    keys.frombytes(rng.randbytes(8 * count))
    if sys.byteorder == "big":
        keys.byteswap()
    return sorted(range(count), key=keys.tolist().__getitem__)


def _configuration_model_attempt(
    n: int, d: int, rng: random.Random, repair_rounds: int = 50
) -> list[tuple[int, int]] | None:
    """One configuration-model attempt with local repair.

    Pairs the ``n*d`` half-edges along a key-sorted permutation
    (:func:`_shuffle_order`), detects self-loops / parallel edges, and
    re-pairs conflicting stubs (plus a few good edges broken open) for up
    to ``repair_rounds`` rounds.

    Returns the edge list, or ``None`` if conflicts could not be repaired.
    """
    order = _shuffle_order(rng, n * d)
    # Stub j belongs to node j // d.
    pairs = [
        (order[2 * i] // d, order[2 * i + 1] // d) for i in range(len(order) // 2)
    ]
    for _ in range(repair_rounds):
        good: list[tuple[int, int]] = []
        bad_stubs: list[int] = []
        # Packed-int edge keys: no tuple allocation/hashing in the scan.
        seen: set[int] = set()
        for u, v in pairs:
            key = (u << 32) | v if u < v else (v << 32) | u
            if u == v or key in seen:
                bad_stubs.extend((u, v))
            else:
                seen.add(key)
                good.append((u, v) if u < v else (v, u))
        if not bad_stubs:
            return good
        if len(bad_stubs) > max(4, n // 2):
            return None
        # Re-pair the conflicting stubs together with a few random good
        # edges broken open, to give the repair room to succeed.
        k = min(len(good), len(bad_stubs))
        good = [good[i] for i in _shuffle_order(rng, len(good))]
        for _ in range(k):
            u, v = good.pop()
            bad_stubs.extend((u, v))
        bad_stubs = [bad_stubs[i] for i in _shuffle_order(rng, len(bad_stubs))]
        pairs = good + [
            (bad_stubs[2 * i], bad_stubs[2 * i + 1]) for i in range(len(bad_stubs) // 2)
        ]
    return None


def high_girth_regular_graph(
    n: int, d: int, girth: int, seed: int = 0, max_swaps: int = 20000
) -> Graph:
    """Random ``d``-regular graph with girth >= ``girth``.

    Starts from a configuration-model sample and repeatedly breaks the
    shortest cycle by a degree-preserving double edge swap with a random
    far-away edge.  These are the paper's *hard* instances: with girth
    > 4·r + 2 no node sees a degree-choosable component within radius r,
    so the base layer B0 is empty and the entire graph goes through the
    shattering phases (4)-(6) — exactly the regime Lemmas 12/14/15 and 23
    reason about.

    Feasible whenever the Moore bound allows it; the swap loop raises
    :class:`GraphError` if it cannot reach the target girth (ask for a
    larger n or smaller girth).
    """
    rng = random.Random(seed)
    graph = random_regular_graph(n, d, seed=rng.randrange(1 << 30))
    for _ in range(max_swaps):
        cycle = _short_cycle(graph, girth - 1)
        if cycle is None:
            return graph
        u, v = cycle[0], cycle[1]
        edges = list(graph.edges())
        for _attempt in range(200):
            x, y = edges[rng.randrange(len(edges))]
            if len({u, v, x, y}) < 4:
                continue
            # Swap (u,v),(x,y) -> (u,x),(v,y) keeping the graph simple.
            if graph.has_edge(u, x) or graph.has_edge(v, y):
                continue
            new_edges = [
                e for e in edges if e not in ((min(u, v), max(u, v)), (min(x, y), max(x, y)))
            ]
            new_edges.append((min(u, x), max(u, x)))
            new_edges.append((min(v, y), max(v, y)))
            candidate = Graph.from_edges_unchecked(n, new_edges)
            if candidate.is_connected():
                graph = candidate
                break
        else:
            raise GraphError("edge-swap girth boosting got stuck")
    raise GraphError(
        f"could not reach girth {girth} on a {d}-regular graph with n={n}"
    )


def _short_cycle(graph: Graph, max_len: int) -> list[int] | None:
    """Some cycle of length <= max_len, as a vertex list (or None)."""
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if dist[u] * 2 >= max_len:
                continue
            for v in graph.adj[u]:
                if v == parent[u]:
                    continue
                if v in dist:
                    if dist[u] + dist[v] + 1 <= max_len:
                        path_u = _path_to_root(parent, u)
                        path_v = _path_to_root(parent, v)
                        return _merge_cycle(path_u, path_v)
                else:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
    return None


def _path_to_root(parent: dict[int, int], u: int) -> list[int]:
    path = [u]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def _merge_cycle(path_u: list[int], path_v: list[int]) -> list[int]:
    """Combine two root paths meeting at their last common ancestor."""
    set_v = set(path_v)
    meet_index = next(i for i, x in enumerate(path_u) if x in set_v)
    meet = path_u[meet_index]
    tail = path_v[: path_v.index(meet)]
    return path_u[: meet_index + 1] + list(reversed(tail))


def random_graph_with_max_degree(
    n: int, max_degree: int, target_avg_degree: float, seed: int = 0
) -> Graph:
    """Random graph with degrees capped at ``max_degree``.

    Samples candidate edges uniformly and keeps those not violating the cap,
    until the average degree reaches ``target_avg_degree`` or candidates are
    exhausted.  Produces irregular instances with genuine boundary
    (degree < Δ) nodes, exercising the "free node" code paths.
    """
    if max_degree < 1 or n < 2:
        raise GraphError("need max_degree >= 1 and n >= 2")
    rng = random.Random(seed)
    target_edges = int(n * target_avg_degree / 2)
    degrees = [0] * n
    edges: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 40 * target_edges + 100
    while len(edges) < target_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges or degrees[u] >= max_degree or degrees[v] >= max_degree:
            continue
        edges.add(key)
        degrees[u] += 1
        degrees[v] += 1
    return Graph.from_edges_unchecked(n, sorted(edges))


def random_tree(n: int, seed: int = 0, max_degree: int | None = None) -> Graph:
    """Uniform-ish random tree via random attachment with a degree cap."""
    if n < 1:
        raise GraphError("need n >= 1")
    rng = random.Random(seed)
    degrees = [0] * n
    builder = GraphBuilder(n)
    for v in range(1, n):
        while True:
            u = rng.randrange(v)
            if max_degree is None or degrees[u] < max_degree - (1 if v < n - 1 else 0):
                break
        builder.add_edge(u, v)
        degrees[u] += 1
        degrees[v] += 1
    return builder.build()


def random_gallai_tree(
    num_blocks: int, seed: int = 0, max_clique: int = 5, max_cycle: int = 9
) -> Graph:
    """Random Gallai tree: a tree of blocks, each a clique or an odd cycle.

    Blocks are glued at single shared (cut) vertices, so every maximal
    2-connected component is exactly one generated block — by Definition 7
    the result is a Gallai tree, and by Theorem 8 it is *not*
    degree-choosable.  These are the negative instances for DCC detection
    and the ERT colorer's infeasibility tests.
    """
    if num_blocks < 1:
        raise GraphError("need at least one block")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    all_nodes: list[int] = [0]
    next_node = 1
    for block_index in range(num_blocks):
        attach = 0 if block_index == 0 else rng.choice(all_nodes)
        if rng.random() < 0.5:
            size = rng.randrange(2, max_clique + 1)
            members = [attach] + list(range(next_node, next_node + size - 1))
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    edges.append((u, v))
        else:
            length = rng.choice([k for k in range(3, max_cycle + 1, 2)])
            members = [attach] + list(range(next_node, next_node + length - 1))
            for i in range(len(members)):
                edges.append((members[i], members[(i + 1) % len(members)]))
        fresh = [v for v in members if v != attach]
        next_node += len(fresh)
        all_nodes.extend(fresh)
    return Graph.from_edges_unchecked(next_node, sorted({(min(u, v), max(u, v)) for u, v in edges}))


def random_nice_graph(n: int, delta: int, seed: int = 0) -> Graph:
    """A connected nice graph with maximum degree exactly ``delta``.

    Sampled as a random graph with capped degree grown until connected, then
    patched to guarantee niceness; convenience generator for property tests
    that want "any valid algorithm input".
    """
    if delta < 3 or n < delta + 2:
        raise GraphError("need delta >= 3 and n >= delta + 2")
    rng = random.Random(seed)
    for attempt in range(60):
        graph = random_graph_with_max_degree(
            n, delta, target_avg_degree=min(delta - 0.3, 2.5 + delta / 2), seed=rng.randrange(1 << 30)
        )
        graph = _connect_components(graph, delta, rng)
        if graph is None:
            continue
        if graph.max_degree() == delta:
            from repro.graphs.properties import is_nice

            if is_nice(graph):
                return graph
    raise GraphError(f"failed to sample a nice graph (n={n}, delta={delta})")


def _connect_components(graph: Graph, max_degree: int, rng: random.Random) -> Graph | None:
    """Join components by adding edges between low-degree nodes."""
    components = graph.connected_components()
    if len(components) == 1:
        return graph
    edges = list(graph.edges())
    degrees = graph.degrees()
    previous = None
    for component in components:
        candidates = [v for v in component if degrees[v] < max_degree]
        if not candidates:
            return None
        pick = rng.choice(candidates)
        if previous is not None:
            edges.append((previous, pick))
            degrees[previous] += 1
            degrees[pick] += 1
        candidates = [v for v in component if degrees[v] < max_degree]
        if not candidates:
            return None
        previous = rng.choice(candidates)
    return Graph.from_edges_unchecked(graph.n, edges)


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Disjoint union with consecutive relabeling."""
    builder = GraphBuilder()
    offset = 0
    for graph in graphs:
        for u, v in graph.edges():
            builder.add_edge(u + offset, v + offset)
        offset += graph.n
        if offset:
            builder.ensure_node(offset - 1)
    return builder.build()
