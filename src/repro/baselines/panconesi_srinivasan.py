"""The Panconesi–Srinivasan baseline: O(log³ n / log Δ) Δ-coloring [PS92/95].

This is the 25-year state of the art the paper improves on, rebuilt inside
the same layering framework from the components available in 1993 (the
original exposition uses network decompositions and token machinery, but
its cost structure is exactly reproduced here):

* base layer: a deterministic (R, (R-1)·log n) AGLP ruling forest with
  R = Θ(log_{Δ-1} n)   →  z = O(log² n / log Δ) layers;
* every layer colored by *iterated random trials* (the pre-[Gha16]
  list-coloring engine), O(log n) rounds per layer w.h.p.;
* B0 repaired via the distributed Brooks' theorem — [PS95]'s own Theorem 5.

Total: O(log² n / log Δ) · O(log n) = O(log³ n / log Δ) rounds — the
baseline row of experiment E4, against which the new algorithms'
O((log log n)²) / O(log Δ) + … rounds are compared.
"""

from __future__ import annotations

import random

from repro.core.brooks import fix_uncolored_node
from repro.core.deterministic import ruling_distance
from repro.core.layering import color_layers_in_reverse
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import EngineRun, RoundLedger
from repro.primitives.ruling_sets import ruling_forest_aglp

__all__ = ["PS_PHASE_KEYS", "ps_delta_coloring"]


PS_PHASE_KEYS: dict[str, tuple[str, ...]] = {
    "1:ruling-forest": ("ruling_distance", "b0_size"),
    "2:layers": ("num_layers",),
    "3:color-layers": ("layer_iterations", "max_layer_iterations"),
    "4:color-b0-brooks": ("fix_modes",),
}


def ps_delta_coloring(
    graph: Graph, seed: int = 0, strict: bool = False
) -> EngineRun:
    """Δ-color a nice graph with the PS-shaped baseline (module docstring).

    The engine behind ``solve(graph, algorithm="ps")``, which checks
    niceness and validates the output.
    """
    delta = graph.max_degree()
    n = graph.n
    rng = random.Random(seed)
    ledger = RoundLedger()
    colors = [UNCOLORED] * n
    stats: dict[str, object] = {}

    big_r = ruling_distance(n, delta)
    stats["ruling_distance"] = big_r
    with ledger.phase("1:ruling-forest"):
        ruling = ruling_forest_aglp(graph, big_r, ledger)
    base_layer = ruling.nodes
    stats["b0_size"] = len(base_layer)

    with ledger.phase("2:layers"):
        layers = distance_layers(graph, base_layer)
        ledger.charge(len(layers))
    stats["num_layers"] = len(layers) - 1

    with ledger.phase("3:color-layers"):
        report = color_layers_in_reverse(
            graph, colors, layers, delta, "random", ledger, rng, strict=strict
        )
    stats["layer_iterations"] = report.total_iterations
    stats["max_layer_iterations"] = report.max_iterations_per_layer

    with ledger.phase("4:color-b0-brooks"):
        budget_radius = max(2, (big_r - 1) // 2)
        costs = []
        modes: dict[str, int] = {}
        for v in sorted(base_layer):
            if colors[v] != UNCOLORED:
                continue
            local = RoundLedger()
            result = fix_uncolored_node(
                graph, colors, v, delta, max_radius=budget_radius, ledger=local
            )
            modes[result.mode] = modes.get(result.mode, 0) + 1
            costs.append(local.total_rounds)
        ledger.charge_max(costs)
        stats["fix_modes"] = modes

    return EngineRun.from_ledger("ps", colors, delta, ledger, stats, PS_PHASE_KEYS)
