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

Multi-source searches (:func:`bfs_distances`, :func:`distance_layers`,
and through them the B-layers of the randomized pipeline, the boundary
and C-layer searches inside H, the ruling forests of the deterministic
one, connectivity checks) run in the native kernel's ``level_bfs``
(``repro/kernel.c``, loaded by :mod:`repro.native`): one pass that fills
an int32 distance array and buckets the reached nodes by level, on graphs
of any diameter.  A masked search goes native when ``allowed`` is a set
(turned into a byte mask) or a ``bytearray``/``bytes`` mask of length n;
predicates and other sequences take the Python loop.  The per-visit
Python loops stay as the bit-identical twins, and run whenever the
kernel is not loaded (no C compiler).  A source or ``allowed`` node
outside ``0..n-1`` raises ``IndexError`` on both paths.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from collections.abc import Callable, Collection, Iterable, Sequence
from itertools import compress

from repro import native
from repro.graphs.graph import Graph
from repro.native import address

__all__ = [
    "bfs_distances",
    "bfs_ball",
    "bfs_levels",
    "bfs_tree",
    "distance_layers",
    "distance_layers_and_rest",
]

UNREACHED = -1

# No size threshold: the kernel wins from a few dozen nodes up.  Measured
# on random 8-regular graphs (2-CPU box, best of 200, kernel vs Python
# twin): a full search's distances take 6 vs 21 µs at n=64, 22 vs 317 µs
# at n=1024 and 1.1 vs 29 ms at n=32768; a 64-source depth-10 search's
# layers 15 vs 44 µs at n=64 and 1.8 vs 33 ms at n=32768; a connectivity
# check 1.2 vs 35 ms at n=32768.  At n=16 the two are within 3 µs.
#
# One case needs care: bfs_distances returns a list of n entries, and
# converting the kernel's int32 array costs ≈10 ns an entry, where the
# twin's [-1] * n costs ≈3.  So a search that reaches under a
# SMALL_REACH-th of the graph fills a fresh list from the reached nodes
# instead: a depth-2 search from one node at n=32768 takes 147 µs that
# way, 323 µs with the conversion and 121 µs in the twin.
SMALL_REACH = 8


def _check_nodes(graph: Graph, nodes: Collection[int], what: str) -> None:
    """Raise ``IndexError`` unless every entry of ``nodes`` is a node of
    ``graph`` (a negative id must not wrap around to ``n + id``)."""
    if nodes and (min(nodes) < 0 or max(nodes) >= graph.n):
        bad = next(v for v in nodes if not 0 <= v < graph.n)
        raise IndexError(f"{what} {bad} is not a node of this {graph.n}-node graph")


def _native_mask(graph: Graph, allowed: object) -> array | None:
    """``allowed`` as the kernel's byte mask: ``None`` unrestricted, a
    copy of a length-n ``bytes``/``bytearray`` mask, or the mask of a
    node set (``IndexError`` for a member outside the graph)."""
    if allowed is None:
        return None
    if isinstance(allowed, (bytes, bytearray)):
        return array("B", allowed)
    _check_nodes(graph, allowed, "allowed node")
    mask = array("B", bytes(graph.n))
    for v in allowed:
        mask[v] = 1
    return mask


def _takes_native(graph: Graph, allowed: object) -> bool:
    """Can ``allowed`` be handed to the kernel: ``None``, a node set, or
    a byte mask of length n?"""
    return (
        allowed is None
        or isinstance(allowed, (set, frozenset))
        or (isinstance(allowed, (bytes, bytearray)) and len(allowed) == graph.n)
    )


def _level_bfs(
    kernel,
    graph: Graph,
    sources: list[int],
    max_depth: int | None,
    allowed: set[int] | frozenset[int] | bytes | bytearray | None,
    layered: bool,
) -> tuple[array, array, list[int]]:
    """Run the kernel's ``level_bfs`` (see ``kernel.c``): returns the
    distance array, the reached nodes level by level (each level
    ascending when ``layered``) and the level bounds in that order
    (``[0, end of level 0, ...]``)."""
    n = graph.n
    _check_nodes(graph, sources, "source")
    mask = _native_mask(graph, allowed)
    offsets, indices = graph.csr()
    starts = array("i", sources)
    dist = array("i", b"\xff" * (4 * n))
    order = array("i", bytes(4 * n))
    ends = array("i", bytes(4 * n))
    levels = kernel(
        address(offsets), address(indices), n,
        address(starts), len(starts), -1 if max_depth is None else max(0, max_depth),
        None if mask is None else address(mask),
        address(dist), address(order), address(ends), layered,
    )
    if levels < 0:  # _check_nodes already refused it
        raise IndexError(f"source {starts[-1 - levels]} is not a node")
    return dist, order, [0, *ends[:levels]]


def reached_count(graph: Graph, sources: Iterable[int]) -> int | None:
    """How many nodes an unrestricted search from ``sources`` reaches, by
    the kernel; ``None`` when the kernel is not loaded."""
    kernel = native.kernel("level_bfs")
    if kernel is None:
        return None
    return _level_bfs(kernel, graph, list(sources), None, None, False)[2][-1]


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
    kernel = native.kernel("level_bfs")
    if kernel is None or not _takes_native(graph, allowed):
        return _bfs_distances_python(graph, sources, max_depth, allowed)
    dist, order, bounds = _level_bfs(kernel, graph, sources, max_depth, allowed, False)
    reached = bounds[-1]
    if SMALL_REACH * reached >= graph.n:
        return dist.tolist()
    # Converting all n entries would cost more than the search did.
    out = [UNREACHED] * graph.n
    for v in order[:reached]:
        out[v] = dist[v]
    return out


def _bfs_distances_python(
    graph: Graph,
    sources: Iterable[int],
    max_depth: int | None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None,
) -> list[int]:
    """The per-visit loop behind :func:`bfs_distances` (reference twin)."""
    sources = list(sources)
    _check_nodes(graph, sources, "source")
    if isinstance(allowed, (set, frozenset)):
        _check_nodes(graph, allowed, "allowed node")
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
    _check_nodes(graph, [center], "center")
    row = graph.neighbors_csr
    if allowed is None:
        dist = {center: 0}
        queue: deque[int] = deque([center])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= radius:
                continue
            for v in row(u):
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
        for v in row(u):
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
    _check_nodes(graph, [center], "center")
    ok = _normalize_allowed(graph, allowed)
    levels: list[list[int]] = [[] for _ in range(radius + 1)]
    if not ok(center):
        return levels
    dist = {center: 0}
    levels[0].append(center)
    queue: deque[int] = deque([center])
    row = graph.neighbors_csr
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= radius:
            continue
        for v in row(u):
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
    _check_nodes(graph, [center], "center")
    ok = _normalize_allowed(graph, allowed)
    parent: dict[int, int] = {}
    level: dict[int, int] = {}
    if not ok(center):
        return parent, level
    parent[center] = center
    level[center] = 0
    queue: deque[int] = deque([center])
    row = graph.neighbors_csr
    while queue:
        u = queue.popleft()
        du = level[u]
        if du >= radius:
            continue
        for v in row(u):
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
    result stops at the last non-empty layer (or ``max_depth``); an empty
    base gives no layers.
    """
    base = list(base)
    if not base:
        return []
    kernel = native.kernel("level_bfs")
    if kernel is not None and _takes_native(graph, allowed):
        _, order, bounds = _level_bfs(kernel, graph, base, max_depth, allowed, True)
        return _levels_of(order, bounds)
    return _distance_layers_python(graph, base, max_depth, allowed)


def distance_layers_and_rest(
    graph: Graph, base: Iterable[int], max_depth: int | None = None
) -> tuple[list[list[int]], set[int], bytes]:
    """``distance_layers(graph, base, max_depth)``, the set of the nodes
    no layer holds (every node for an empty base) and that set's byte
    mask (n bytes, 1 for a member).

    The set is filled in ascending node order, as
    ``{v for v in range(n) if v not in layered}`` fills it, so it has
    that set's iteration order too.  The kernel path reads the unreached
    nodes off the sign bytes of its distance array, and does no per-node
    work at all when the search reached every node."""
    base = list(base)
    n = graph.n
    if not base:
        return [], set(range(n)), b"\x01" * n
    kernel = native.kernel("level_bfs")
    if kernel is None:
        dist = _bfs_distances_python(graph, base, max_depth, None)
        unreached = bytes(map(UNREACHED.__eq__, dist))
        return _layers_of(dist), set(compress(range(n), unreached)), unreached
    dist, order, bounds = _level_bfs(kernel, graph, base, max_depth, None, True)
    layers = _levels_of(order, bounds)
    if bounds[-1] == n:
        return layers, set(), bytes(n)
    unreached = dist.tobytes()[_SIGN_BYTE::4].translate(_NEGATIVE)
    return layers, set(compress(range(n), unreached)), unreached


def _levels_of(order: array, bounds: list[int]) -> list[list[int]]:
    """The levels a layered ``level_bfs`` wrote to ``order``."""
    return [order[bounds[i - 1] : bounds[i]].tolist() for i in range(1, len(bounds))]


# A distance is negative (UNREACHED) exactly when the top bit of its
# most significant byte is set: the table maps such a byte to 1, any
# other to 0.
_SIGN_BYTE = 3 if sys.byteorder == "little" else 0
_NEGATIVE = bytes(128) + b"\x01" * 128


def _distance_layers_python(
    graph: Graph,
    base: Iterable[int],
    max_depth: int | None,
    allowed: set[int] | Sequence[bool] | Callable[[int], bool] | None,
) -> list[list[int]]:
    """Layers from the per-visit BFS loop (reference twin)."""
    return _layers_of(_bfs_distances_python(graph, base, max_depth, allowed))


def _layers_of(dist: list[int]) -> list[list[int]]:
    """The reached nodes of a distance list, bucketed by distance."""
    depth = max((d for d in dist if d != UNREACHED), default=-1)
    layers: list[list[int]] = [[] for _ in range(depth + 1)]
    for v, d in enumerate(dist):
        if d != UNREACHED:
            layers[d].append(v)
    return layers
