"""Breadth-first-search utilities: distances, balls, layers, BFS trees.

These are the workhorses behind the paper's machinery: the layering
technique (layers ``B_i`` = nodes at distance exactly ``i`` from the base
layer, Section 3), the happiness layers ``C_i`` of phase (5), DCC detection
on radius-``r`` balls, and the expansion measurements of Lemmas 12/14/15
(which count nodes per BFS level).

All functions take an optional ``allowed`` predicate/set restricting the
traversal to a node subset — the paper constantly BFS-es inside a remainder
graph ``H`` or along *uncolored* paths, and filtering during traversal is
much cheaper than materialising induced subgraphs.  ``allowed`` may be a
set, a predicate, a ``bytearray``/bool-sequence mask (e.g. the ``mask`` of
:class:`repro.graphs.graph.SubgraphView`), or ``None``; the ``None`` case
takes a specialised loop with no per-visit predicate call, which matters in
the per-node ball collection of DCC detection.

Unrestricted searches that should reach a good part of a graph of at
least ``VECTOR_MIN_NODES`` nodes (the B-layers of the randomized
pipeline, the ruling forests of the deterministic one, connectivity
checks) run level by level over the CSR buffers with numpy
(:func:`frontier_levels`); the per-visit Python loops stay as the
bit-identical fallback twins.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence

from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_ball",
    "bfs_levels",
    "bfs_tree",
    "distance_layers",
    "closest_source_assignment",
    "eccentricity",
]

UNREACHED = -1

# numpy BFS pays fixed costs (~20 µs a level, an O(n) conversion back
# to a list) that the Python loop does not.  Measured on random 8-regular
# graphs (best of 200): at serve-read's n=1024 a 64-source depth-10
# search takes 0.25 ms in numpy vs 0.35 ms in Python, its layers 0.22 vs
# 0.40 ms and a connectivity check 0.36 vs 0.49 ms; at n=256 Python wins
# all three, at n=512 numpy does.  A search expected to reach under a
# quarter of the graph (two sources, depth 2: 0.13 vs 0.04 ms at n=4096)
# also stays in Python, and so does a graph too deep for the per-level
# cost (more than VECTOR_MAX_LEVELS levels).
VECTOR_MIN_NODES = 512
VECTOR_MAX_LEVELS = 64


def _worth_vectorizing(
    graph: Graph, num_sources: int, max_depth: int | None, allowed: object = None
) -> bool:
    """Should an unrestricted search run through :func:`frontier_levels`:
    ``graph.n >= VECTOR_MIN_NODES`` and an expected reach (sources times
    (Δ-1) per level) of at least a quarter of the graph?"""
    n = graph.n
    if allowed is not None or n < VECTOR_MIN_NODES or num_sources == 0:
        return False
    if max_depth is None:
        return True
    reach = num_sources
    growth = max(1, graph.max_degree() - 1)
    for _ in range(max_depth):
        if 4 * reach >= n:
            break
        reach *= growth
    return 4 * reach >= n


def frontier_levels(graph: Graph, sources: Iterable[int], max_depth: int | None):
    """Level-synchronous BFS over ``graph.csr()`` with numpy.

    Returns ``levels``, a list of int arrays: ``levels[i]`` holds the
    nodes at distance exactly ``i`` from the closest source (unsorted,
    each once), stopping at the last non-empty level or ``max_depth``.
    Returns ``None`` when numpy is unavailable, a source is out of range
    or the search runs deeper than ``VECTOR_MAX_LEVELS`` levels — the
    caller then runs its Python twin, which is cheaper on long, thin
    graphs.
    """
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy-free environments
        return None
    n = graph.n
    offsets, indices = graph.csr()
    indptr = np.frombuffer(offsets, dtype=np.int32)
    idx = np.frombuffer(indices, dtype=np.int32)
    seen = np.zeros(n, dtype=bool)
    frontier = np.fromiter(sources, dtype=np.int64)
    if frontier.size and (frontier.min() < 0 or frontier.max() >= n):
        return None  # the Python twin owns out-of-range semantics
    frontier = np.unique(frontier)
    seen[frontier] = True
    levels = [frontier] if frontier.size else []
    slot = np.zeros(n, dtype=np.int64)
    while frontier.size and (max_depth is None or len(levels) <= max_depth):
        if len(levels) > VECTOR_MAX_LEVELS:
            return None
        starts = indptr[frontier]
        deg = indptr[frontier + 1] - starts
        total = int(deg.sum())
        bounds = np.cumsum(deg) - deg
        positions = np.repeat(starts - bounds, deg) + np.arange(total)
        reached = idx[positions]
        reached = reached[~seen[reached]]
        # Keep one copy of each newly reached node: the last write to
        # ``slot`` wins, and exactly one position reads its own index.
        order = np.arange(reached.size)
        slot[reached] = order
        frontier = reached[slot[reached] == order]
        seen[frontier] = True
        if frontier.size:
            levels.append(frontier)
    return levels


def _normalize_allowed(
    graph: Graph, allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None
) -> Callable[[int], bool]:
    """Turn the flexible ``allowed`` argument into a predicate."""
    if allowed is None:
        return lambda _v: True
    if callable(allowed):
        return allowed
    if isinstance(allowed, set) or isinstance(allowed, frozenset):
        return allowed.__contains__
    flags = allowed
    return lambda v: bool(flags[v])


def bfs_distances(
    graph: Graph,
    sources: Iterable[int],
    max_depth: int | None = None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> list[int]:
    """Multi-source BFS distances.

    Returns a list ``dist`` with ``dist[v]`` the hop distance from the
    closest source, or ``UNREACHED`` (-1) if ``v`` is farther than
    ``max_depth`` or unreachable.  Sources that are not ``allowed`` are
    skipped; traversal never enters disallowed nodes.
    """
    sources = list(sources)
    if _worth_vectorizing(graph, len(sources), max_depth, allowed):
        dist = _bfs_distances_vectorized(graph, sources, max_depth)
        if dist is not None:
            return dist
    return _bfs_distances_python(graph, sources, max_depth, allowed)


def _bfs_distances_vectorized(
    graph: Graph, sources: Iterable[int], max_depth: int | None
) -> list[int] | None:
    """:func:`bfs_distances` (``allowed=None``) over :func:`frontier_levels`."""
    levels = frontier_levels(graph, sources, max_depth)
    if levels is None:
        return None
    import numpy as np

    dist = np.full(graph.n, UNREACHED, dtype=np.int32)
    for depth, level in enumerate(levels):
        dist[level] = depth
    return dist.tolist()


def _bfs_distances_python(
    graph: Graph,
    sources: Iterable[int],
    max_depth: int | None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None,
) -> list[int]:
    """The per-visit loop behind :func:`bfs_distances` (reference twin)."""
    dist = [UNREACHED] * graph.n
    queue: deque[int] = deque()
    adj = graph.adj
    if allowed is None:
        for s in sources:
            if dist[s] == UNREACHED:
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            du = dist[u]
            if max_depth is not None and du >= max_depth:
                continue
            for v in adj[u]:
                if dist[v] == UNREACHED:
                    dist[v] = du + 1
                    queue.append(v)
        return dist
    ok = _normalize_allowed(graph, allowed)
    for s in sources:
        if dist[s] == UNREACHED and ok(s):
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in adj[u]:
            if dist[v] == UNREACHED and ok(v):
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_ball(
    graph: Graph,
    center: int,
    radius: int,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> list[int]:
    """Nodes at distance at most ``radius`` from ``center`` (including it).

    This is the LOCAL-model "collect your radius-r neighbourhood" primitive;
    callers charge ``radius`` rounds for it on the ledger.
    """
    adj = graph.adj
    if allowed is None:
        dist = {center: 0}
        queue: deque[int] = deque([center])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= radius:
                continue
            for v in adj[u]:
                if v not in dist:
                    dist[v] = du + 1
                    queue.append(v)
        return list(dist)
    ok = _normalize_allowed(graph, allowed)
    if not ok(center):
        return []
    dist = {center: 0}
    queue = deque([center])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= radius:
            continue
        for v in adj[u]:
            if v not in dist and ok(v):
                dist[v] = du + 1
                queue.append(v)
    return list(dist)


def bfs_levels(
    graph: Graph,
    center: int,
    radius: int,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> list[list[int]]:
    """BFS levels ``[B_0, B_1, .., B_radius]`` around ``center``.

    ``B_t`` is the list of nodes at distance exactly ``t``; trailing empty
    levels are preserved so ``len(result) == radius + 1`` (Lemmas 12/14/15
    reason about the size of a specific level ``B_r``).
    """
    ok = _normalize_allowed(graph, allowed)
    levels: list[list[int]] = [[] for _ in range(radius + 1)]
    if not ok(center):
        return levels
    dist = {center: 0}
    levels[0].append(center)
    queue: deque[int] = deque([center])
    adj = graph.adj
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= radius:
            continue
        for v in adj[u]:
            if v not in dist and ok(v):
                dist[v] = du + 1
                levels[du + 1].append(v)
                queue.append(v)
    return levels


def bfs_tree(
    graph: Graph,
    center: int,
    radius: int,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """BFS tree around ``center`` truncated at depth ``radius``.

    Returns ``(parent, level)`` dictionaries over the reached nodes, with
    ``parent[center] == center``.  Lemma 10 shows this tree is *unique* in
    graphs without small degree-choosable components; the test suite checks
    that (every non-root reached node has exactly one neighbour on the
    previous level).
    """
    ok = _normalize_allowed(graph, allowed)
    parent: dict[int, int] = {}
    level: dict[int, int] = {}
    if not ok(center):
        return parent, level
    parent[center] = center
    level[center] = 0
    queue: deque[int] = deque([center])
    adj = graph.adj
    while queue:
        u = queue.popleft()
        du = level[u]
        if du >= radius:
            continue
        for v in adj[u]:
            if v not in level and ok(v):
                level[v] = du + 1
                parent[v] = u
                queue.append(v)
    return parent, level


def distance_layers(
    graph: Graph,
    base: Iterable[int],
    max_depth: int | None = None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> list[list[int]]:
    """Layers of the layering technique: ``layers[i]`` = nodes at distance
    exactly ``i`` from the base set (``layers[0]`` = base itself).

    This is exactly how the paper builds ``B_1, .., B_s`` from ``B_0``
    (Section 3) and the ``C``/``D`` layers of phases (5) and (6).  The
    result stops at the last non-empty layer (or ``max_depth``).
    """
    base = list(base)
    if _worth_vectorizing(graph, len(base), max_depth, allowed):
        layers = _distance_layers_vectorized(graph, base, max_depth)
        if layers is not None:
            return layers
    return _distance_layers_python(graph, base, max_depth, allowed)


def _distance_layers_vectorized(
    graph: Graph, base: Iterable[int], max_depth: int | None
) -> list[list[int]] | None:
    """:func:`distance_layers` (``allowed=None``) over :func:`frontier_levels`."""
    levels = frontier_levels(graph, base, max_depth)
    if levels is None:
        return None
    import numpy as np

    return [np.sort(level).tolist() for level in levels]


def _distance_layers_python(
    graph: Graph,
    base: Iterable[int],
    max_depth: int | None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None,
) -> list[list[int]]:
    """Layers from the per-visit BFS loop (reference twin)."""
    dist = _bfs_distances_python(graph, base, max_depth, allowed)
    depth = max((d for d in dist if d != UNREACHED), default=-1)
    layers: list[list[int]] = [[] for _ in range(depth + 1)]
    for v, d in enumerate(dist):
        if d != UNREACHED:
            layers[d].append(v)
    return layers


def closest_source_assignment(
    graph: Graph,
    sources: Iterable[int],
    max_depth: int | None = None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None = None,
) -> tuple[list[int], list[int]]:
    """Assign every reached node to its closest source, ties by smaller id.

    Returns ``(dist, assigned)`` lists; unreached nodes have ``dist == -1``
    and ``assigned == -1``.  Phase (5) of the randomized algorithm assigns
    each happy node to its closest T-node / boundary node "breaking ties
    using identifiers" — this implements that rule: the BFS processes
    sources in ascending id order, and on equal distance the smaller
    assigned source id wins because it is enqueued first.
    """
    ok = _normalize_allowed(graph, allowed)
    dist = [UNREACHED] * graph.n
    assigned = [UNREACHED] * graph.n
    queue: deque[int] = deque()
    for s in sorted(set(sources)):
        if ok(s) and dist[s] == UNREACHED:
            dist[s] = 0
            assigned[s] = s
            queue.append(s)
    adj = graph.adj
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in adj[u]:
            if dist[v] == UNREACHED and ok(v):
                dist[v] = du + 1
                assigned[v] = assigned[u]
                queue.append(v)
    return dist, assigned


def eccentricity(graph: Graph, v: int, allowed=None) -> int:
    """Eccentricity of ``v`` within its (allowed) connected component."""
    dist = bfs_distances(graph, [v], allowed=allowed)
    return max((d for d in dist if d != UNREACHED), default=0)
