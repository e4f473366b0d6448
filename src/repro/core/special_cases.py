"""Coloring the graphs Brooks' theorem excludes, and whole-graph dispatch.

The Δ-coloring algorithms require *nice* graphs: connected and not a
clique, cycle, or path.  A downstream user, however, has arbitrary
graphs — possibly disconnected, possibly containing the excluded
families.  This module completes the library:

* :func:`color_special` — optimally colors the non-nice families:
  paths and even cycles with 2 colors, odd cycles with 3, cliques K_k
  with k (each matching its chromatic number; note χ = Δ+1 for odd
  cycles and cliques — exactly Brooks' exceptions);
* :func:`color_components` — colors *any* graph, component by component
  (the engine behind ``solve(graph, algorithm="components")``): nice
  components get the paper's Δ-coloring (with the per-component Δ),
  excluded components get their optimal special coloring.  The round
  cost is the max over components (they run concurrently in LOCAL).

The LOCAL cost of the special families is honest: paths and cycles
genuinely need Θ(n) rounds to 2/3-color (this is the paper's remark that
"2-coloring graphs with Δ = 2 may need Ω(n) rounds"); cliques have
diameter 1 and cost O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.randomized import RandomizedParams, run_pipeline
from repro.errors import ColoringError, NotNiceGraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    is_complete,
    is_cycle_graph,
    is_nice,
    is_path_graph,
)
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import EngineRun, PipelineState, run_phases

__all__ = ["SpecialColoring", "color_special", "color_components"]


@dataclass
class SpecialColoring:
    """Result of coloring one of Brooks' excluded families."""

    colors: list[int]
    num_colors: int
    rounds: int
    family: str


def color_special(graph: Graph) -> SpecialColoring:
    """Optimally color a connected clique, cycle, or path.

    Raises :class:`NotNiceGraphError` if the graph is none of these: a
    nice graph is Δ-colored by ``solve(graph, algorithm="randomized")``,
    a disconnected one by ``solve(graph, algorithm="components")``.  A
    single node is a trivial path.
    """
    if graph.n == 0:
        return SpecialColoring(colors=[], num_colors=0, rounds=0, family="empty")
    if is_complete(graph) or is_path_graph(graph) or is_cycle_graph(graph):
        return _color_excluded(graph)
    raise NotNiceGraphError(
        "graph is not a clique, cycle or path — use solve(graph, "
        'algorithm="randomized") on a nice graph, algorithm="components" '
        "on any other"
    )


def _color_excluded(graph: Graph) -> SpecialColoring:
    """Color a connected, non-empty clique, path or cycle.

    The caller has established the family (and connectivity), so a
    non-clique with n - 1 edges is a path and any other is a cycle.
    """
    if is_complete(graph):
        # Clique K_k: k colors; diameter 1, so ids order a 1-round greedy.
        colors = [v + 1 for v in range(graph.n)]
        return SpecialColoring(
            colors=colors, num_colors=graph.n, rounds=1, family="clique"
        )
    if graph.num_edges == graph.n - 1:
        colors = _two_color_from(graph, _path_endpoint(graph))
        return SpecialColoring(
            colors=colors, num_colors=min(2, graph.n), rounds=graph.n,
            family="path",
        )
    order = _walk_cycle(graph, 0)
    colors = [UNCOLORED] * graph.n
    for index, v in enumerate(order):
        colors[v] = 1 + index % 2
    if graph.n % 2 == 1:
        # Odd cycle: the walk's last node takes the third color.
        colors[order[-1]] = 3
        family, k = "odd-cycle", 3
    else:
        family, k = "even-cycle", 2
    return SpecialColoring(colors=colors, num_colors=k, rounds=graph.n, family=family)


def _path_endpoint(graph: Graph) -> int:
    if graph.n == 1:
        return 0
    return next(v for v in range(graph.n) if graph.degree(v) == 1)


def _walk_cycle(graph: Graph, start: int) -> list[int]:
    """The cycle's nodes in traversal order starting at ``start``."""
    order = [start]
    previous, current = None, start
    while True:
        nxt = next(u for u in graph.adj[current] if u != previous)
        if nxt == start:
            return order
        order.append(nxt)
        previous, current = current, nxt


def _two_color_from(graph: Graph, start: int) -> list[int]:
    """Alternating 2-coloring by BFS parity from ``start`` (Θ(n) rounds in
    LOCAL — the information must traverse the whole path/cycle)."""
    colors = [UNCOLORED] * graph.n
    colors[start] = 1
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in graph.adj[u]:
                if colors[w] == UNCOLORED:
                    colors[w] = 3 - colors[u]
                    nxt.append(w)
        frontier = nxt
    return colors


def color_components(graph: Graph, seed: int = 0, strict: bool = False) -> EngineRun:
    """Color an arbitrary graph with the fewest colors this library can
    guarantee per component: Δ_component for nice components (the paper's
    randomized pipeline), χ for the excluded families.

    The engine behind ``solve(graph, algorithm="components")``, which
    validates the whole coloring against the largest per-component
    palette; here each component is held to its own palette and a
    component that exceeds it raises :class:`ColoringError`.  Components
    are independent in LOCAL, so they are colored concurrently and the
    cost is the slowest component.  This is also the natural
    *failure-handling* entry point: after crashed nodes are removed, the
    survivor graph is recolored per component (see
    ``tests/test_special_cases.py``).
    """
    palette = 0

    def components(s: PipelineState) -> dict[str, Any]:
        nonlocal palette
        rounds = 0
        families: dict[str, int] = {}
        for component in s.graph.connected_components():
            sub, originals = s.graph.subgraph(component)
            if sub.n == 1:
                assignment, bound, cost, family = [1], 1, 0, "isolated"
            elif is_nice(sub):
                run = run_pipeline(sub, RandomizedParams(seed=seed, strict=strict))
                assignment, bound, cost, family = run.colors, run.delta, run.rounds, "nice"
            else:
                special = _color_excluded(sub)
                assignment, bound = special.colors, special.num_colors
                cost, family = special.rounds, special.family
            if max(assignment) > bound:
                raise ColoringError(
                    f"{family} component on {sub.n} nodes uses color "
                    f"{max(assignment)}, above its palette of {bound}"
                )
            for i, v in enumerate(originals):
                s.colors[v] = assignment[i]
            palette = max(palette, bound)
            rounds = max(rounds, cost)
            families[family] = families.get(family, 0) + 1
        # Charged even when 0, so the phase keeps its key on n = 0.
        s.ledger.charge(rounds)
        return {"component_families": families, "num_components": sum(families.values())}

    state = run_phases(PipelineState(graph, strict), [("components", components)])
    return EngineRun.from_state("components", state, palette=palette)
