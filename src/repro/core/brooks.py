"""Distributed Brooks' theorem (Theorem 5): local single-node repair.

Setting: the graph is properly Δ-colored except for one node v.  Theorem 5
(re-proved by the paper via Lemmas 10–16) says the coloring can be
completed by changing colors only inside the (2·log_{Δ-1} n)-neighbourhood
of v.  The constructive procedure implemented here is the proof's token
walk:

1. If v has a free color, take it.
2. Otherwise every color appears exactly once around v (deg(v) = Δ and Δ
   distinct neighbour colors), so the *token* can slide: pick the
   neighbour x on a shortest path toward a chosen target, set
   c(v) := c(x) (proper — x was the unique neighbour with that color),
   uncolor x, repeat from x.
3. Targets, nearest first (Lemma 16 guarantees one within 2·log_{Δ-1} n):
   * a **deficient** node (degree < Δ) — once the token reaches it, at
     most Δ-1 neighbours exist, a free color is guaranteed;
   * a node adjacent to an **uncolored** node — same guarantee;
   * a **degree-choosable component** — slide the token into it, uncolor
     it entirely, recolor it by degree-choosability (Theorem 8);
   * a **duplicate** node (two equal-colored neighbours) — usually free
     after arrival; the walk may disturb its duplication, in which case a
     fresh target is chosen (bounded retries).
4. If no target exists within ``max_radius`` (possible only on inputs
   violating Lemma 16's hypotheses, e.g. tiny graphs), a growing region
   around the token is uncolored and resolved as a degree-list instance —
   ultimately the whole component, where Brooks' theorem guarantees
   success on nice graphs.

Rounds charged: 2·(search radius) + path length per walk segment — the
LOCAL cost of v's region discovering the target and relaying the shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.core.degree_choosable import color_against_outside
from repro.graphs.bfs import bfs_ball, bfs_tree
from repro.graphs.blocks import biconnected_components
from repro.graphs.graph import Graph
from repro.graphs.properties import is_clique_nodes, is_odd_cycle_nodes
from repro.graphs.validation import UNCOLORED

__all__ = ["BrooksFixResult", "fix_uncolored_node", "default_fix_radius"]


@dataclass
class BrooksFixResult:
    """Outcome of one repair.

    ``mode`` records which guarantee finished the walk; ``radius`` is the
    farthest distance (from the original node) at which colors changed —
    the quantity Theorem 5 bounds by 2·log_{Δ-1} n and experiment E5
    measures.  ``recolored`` lists nodes whose color changed (excluding
    the repaired node itself); ``rounds`` is the LOCAL cost, which the
    caller charges to its own ledger.
    """

    mode: str
    radius: int
    recolored: list[int] = field(default_factory=list)
    shifts: int = 0
    rounds: int = 0


def default_fix_radius(n: int, max_colors: int) -> int:
    """The Theorem 5 radius bound 2·log_{Δ-1} n (plus slack for rounding)."""
    base = max(2, max_colors - 1)
    return 2 * math.ceil(math.log(max(2, n)) / math.log(base)) + 2


def fix_uncolored_node(
    graph: Graph,
    colors: list[int],
    v: int,
    max_colors: int,
    max_radius: int | None = None,
    max_attempts: int = 24,
) -> BrooksFixResult:
    """Complete the coloring at ``v`` by local recoloring (Theorem 5).

    Preconditions: ``colors`` is a proper partial coloring with
    ``colors[v] == UNCOLORED``; any other uncolored nodes must be farther
    than ``2·max_radius`` from v (the deterministic algorithm guarantees
    this via the ruling-set distance; strict-mode callers check it).
    Mutates ``colors``; returns a :class:`BrooksFixResult`.
    """
    if colors[v] != UNCOLORED:
        raise AlgorithmContractError(f"node {v} is already colored")
    if max_radius is None:
        max_radius = default_fix_radius(graph.n, max_colors)

    original = v
    token = v
    result = BrooksFixResult(mode="free", radius=0)
    touched: set[int] = set()
    burnt_targets: set[int] = set()

    for _attempt in range(max_attempts):
        if _take_free_color(graph, colors, token, max_colors):
            result.mode = "free" if result.shifts == 0 else result.mode
            result.recolored = sorted(touched - {original})
            result.rounds += 1
            _update_radius(graph, result, original, touched | {token})
            return result

        target, kind, parent, level, dcc_block = _find_target(
            graph, colors, token, max_colors, max_radius, burnt_targets
        )
        search_radius = max(level.values(), default=0)
        result.rounds += 2 * search_radius + 1

        if target is None:
            return _regional_repair(
                graph, colors, token, original, max_colors, max_radius,
                result, touched,
            )

        path = _path_from_tree(parent, token, target)
        if kind == "dcc":
            # Slide until the token enters the component, then recolor it.
            block = set(dcc_block)
            for nxt in path[1:]:
                if token in block:
                    break
                _shift(colors, graph, token, nxt, touched, result)
                token = nxt
                if _take_free_color(graph, colors, token, max_colors):
                    result.mode = "shift-early-free"
                    result.recolored = sorted(touched - {original})
                    _update_radius(graph, result, original, touched | {token})
                    return result
            _recolor_dcc(graph, colors, block, max_colors, touched)
            result.mode = "dcc"
            result.recolored = sorted(touched - {original})
            result.rounds += len(path) + 2
            _update_radius(graph, result, original, touched | block)
            return result

        # Deficient / uncolored-adjacent / duplicate target: walk there.
        for nxt in path[1:]:
            _shift(colors, graph, token, nxt, touched, result)
            token = nxt
            if _take_free_color(graph, colors, token, max_colors):
                result.mode = {
                    "deficient": "deficient",
                    "uncolored": "uncolored-slack",
                    "duplicate": "duplicate",
                }[kind] if token == target else "shift-early-free"
                result.recolored = sorted(touched - {original})
                result.rounds += len(path)
                _update_radius(graph, result, original, touched | {token})
                return result
        # Arrived but no free color (duplicate destroyed en route): burn
        # this target and retry from the current token position.
        burnt_targets.add(target)
        result.rounds += len(path)

    # Retries exhausted: fall back to regional repair around the token.
    return _regional_repair(
        graph, colors, token, original, max_colors, max_radius, result, touched
    )


def _path_from_tree(parent: dict[int, int], root: int, target: int) -> list[int]:
    """Root-to-target path in a BFS tree given the parent map."""
    path = [target]
    while path[-1] != root:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _take_free_color(graph: Graph, colors: list[int], v: int, max_colors: int) -> bool:
    used = {colors[u] for u in graph.neighbors_csr(v) if colors[u] != UNCOLORED}
    for c in range(1, max_colors + 1):
        if c not in used:
            colors[v] = c
            return True
    return False


def _shift(
    colors: list[int],
    graph: Graph,
    token: int,
    nxt: int,
    touched: set[int],
    result: BrooksFixResult,
) -> None:
    """One token slide: token takes nxt's color, nxt becomes the token.

    Proper because the token had no free color, hence deg = Δ with all Δ
    colors distinct around it — nxt was the unique neighbour wearing its
    color.
    """
    if colors[nxt] == UNCOLORED:
        raise AlgorithmContractError("token walk stepped onto an uncolored node")
    colors[token] = colors[nxt]
    colors[nxt] = UNCOLORED
    touched.add(token)
    touched.add(nxt)
    result.shifts += 1


def _find_target(
    graph: Graph,
    colors: list[int],
    token: int,
    max_colors: int,
    max_radius: int,
    burnt: set[int],
):
    """BFS through *colored* nodes from the token, classifying candidates.

    Returns ``(target, kind, parent_map, level_map, dcc_block)`` with kind
    one of ``deficient`` / ``uncolored`` (= adjacent to an uncolored node
    other than the token) / ``dcc`` / ``duplicate``; ``target is None``
    when the ball contains none.  Preference order: guaranteed-success
    targets first, then the *smallest-radius* DCC (found by growing the
    ball incrementally so its block stays local instead of merging into
    the graph's 2-core), then duplicate nodes.
    """
    def allowed(u: str) -> bool:
        return u == token or colors[u] != UNCOLORED

    parent, level = bfs_tree(graph, token, max_radius, allowed=allowed)
    candidates: dict[str, tuple[int, int]] = {}

    for u, lu in level.items():
        if u == token or u in burnt:
            continue
        if graph.degree(u) < max_colors:
            if "deficient" not in candidates or lu < candidates["deficient"][0]:
                candidates["deficient"] = (lu, u)
        row = graph.neighbors_csr(u)
        neighbor_colors = [colors[w] for w in row]
        if any(c == UNCOLORED for w, c in zip(row, neighbor_colors) if w != token):
            if "uncolored" not in candidates or lu < candidates["uncolored"][0]:
                candidates["uncolored"] = (lu, u)
        colored = [c for c in neighbor_colors if c != UNCOLORED]
        if len(colored) != len(set(colored)):
            if "duplicate" not in candidates or lu < candidates["duplicate"][0]:
                candidates["duplicate"] = (lu, u)

    for kind in ("deficient", "uncolored"):
        if kind in candidates:
            _, node = candidates[kind]
            return node, kind, parent, level, None

    dcc = _smallest_radius_dcc(graph, colors, token, max_radius, level, burnt)
    if dcc is not None:
        entry, block = dcc
        return entry, "dcc", parent, level, block

    if "duplicate" in candidates:
        _, node = candidates["duplicate"]
        return node, "duplicate", parent, level, None
    return None, None, parent, level, None


def _smallest_radius_dcc(
    graph: Graph,
    colors: list[int],
    token: int,
    max_radius: int,
    level: dict[int, int],
    burnt: set[int],
) -> tuple[int, list[int]] | None:
    """Find a DCC block inside the smallest possible ball around the token.

    Growing the ball one hop at a time keeps the returned block local: a
    block found at radius ρ lies inside the radius-ρ ball, whereas a
    block of the full max-radius ball would typically be the graph's
    giant 2-core.  Returns ``(entry_node, block_nodes)`` where entry is
    the block node closest to the token, or None.
    """
    def allowed(u: str) -> bool:
        return u == token or colors[u] != UNCOLORED

    for radius in range(2, max_radius + 1):
        ball = bfs_ball(graph, token, radius, allowed=allowed)
        if len(ball) < 4:
            continue
        sub, originals = graph.subgraph(ball)
        if sub.num_edges < sub.n:
            continue  # still a tree: no 2-connected subgraph yet
        decomposition = biconnected_components(sub)
        best: tuple[int, int, list[int]] | None = None
        for block in decomposition.blocks:
            if len(block) < 4:
                continue
            if is_clique_nodes(sub, block) or is_odd_cycle_nodes(sub, block):
                continue
            block_original = [originals[i] for i in block]
            entries = [
                (level[u], u)
                for u in block_original
                if u != token and u in level and u not in burnt
            ]
            if not entries:
                continue
            entry_level, entry = min(entries)
            if best is None or entry_level < best[0]:
                best = (entry_level, entry, block_original)
        if best is not None:
            return best[1], best[2]
    return None


def _recolor_dcc(
    graph: Graph,
    colors: list[int],
    block: set[int],
    max_colors: int,
    touched: set[int],
) -> None:
    """Uncolor the whole DCC and recolor it by degree-choosability."""
    for u in block:
        colors[u] = UNCOLORED
    touched.update(color_against_outside(graph, colors, block, max_colors))


def _regional_repair(
    graph: Graph,
    colors: list[int],
    token: int,
    original: int,
    max_colors: int,
    max_radius: int,
    result: BrooksFixResult,
    touched: set[int],
) -> BrooksFixResult:
    """Uncolor a growing region around the token and solve it as a
    degree-list instance; guaranteed to terminate on nice components."""
    radius = max(2, max_radius)
    last_region_size = -1
    while True:
        region = set(bfs_ball(graph, token, radius))
        saved = {u: colors[u] for u in region}
        for u in region:
            colors[u] = UNCOLORED
        try:
            color_against_outside(graph, colors, region, max_colors)
        except InfeasibleListColoringError as exc:
            for u, c in saved.items():
                colors[u] = c
            # The second condition catches disconnected graphs: once the
            # ball saturates the token's component, growing the radius
            # cannot change the instance, so retrying would loop forever.
            if len(region) >= graph.n or len(region) == last_region_size:
                raise AlgorithmContractError(
                    "regional repair failed on the whole component: input is "
                    "not Δ-colorable (clique or odd cycle?)"
                ) from exc
            last_region_size = len(region)
            radius *= 2
            continue
        touched.update(u for u in region if colors[u] != saved[u])
        result.rounds += 2 * radius + 1
        result.mode = "regional"
        result.recolored = sorted(touched - {original})
        _update_radius(graph, result, original, touched | region)
        return result


def _update_radius(
    graph: Graph, result: BrooksFixResult, original: int, nodes: set[int]
) -> None:
    """Record the farthest changed node from the original repair site."""
    if not nodes:
        result.radius = 0
        return
    from repro.graphs.bfs import bfs_distances

    dist = bfs_distances(graph, [original])
    result.radius = max((dist[u] for u in nodes if dist[u] != -1), default=0)
