"""Deterministic Δ-coloring (Section 3; Theorems 4 and 21).

The algorithm is the layering technique in its purest form:

1. Linial's O(Δ²) coloring (symmetry breaking for the list engines).
2. Base layer B0 = an (R, z) ruling forest with R = 4·log_{Δ-1} n + 1
   (substituted: the AGLP bit-recursion ruling set of
   :mod:`repro.primitives.ruling_sets`, giving
   z = (R-1)·⌈log₂ n⌉).
3. Layers B_1..B_z by distance to B0; removed, then re-colored in reverse
   as (deg+1)-list instances with the deterministic engine (Theorem 18
   substitute: O(Δ²) rounds per layer, n-independent).
4. B0 nodes are colored last via the distributed Brooks' theorem
   (Theorem 5): each performs a token walk within radius < R/2; the
   ruling distance R keeps the recoloring regions disjoint, so they run
   concurrently.  Parallelism is accounted by packing fixes whose touched
   regions are disjoint into shared round slots (the rare overlapping
   repair is charged sequentially — honest accounting for the cases where
   a regional fallback outgrew its budget).

Theorem 21 (the 2^O(√log n) re-proof of [PS95]) prescribes the same
pipeline with a network-decomposition-based ruling set; our AGLP + color
class engine already runs in O(Δ²·log² n) ⊆ 2^{O(√log n)} rounds for
Δ = 2^{o(√log n)}, so :func:`delta_coloring_deterministic` subsumes it
(benchmarks/bench_e3_deterministic.py measures it against the bound).
"""

from __future__ import annotations

import math

from repro.errors import AlgorithmContractError
from repro.core.brooks import fix_uncolored_node
from repro.core.layering import color_layers_in_reverse
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import EngineRun, RoundLedger
from repro.primitives.linial import linial_coloring
from repro.primitives.ruling_sets import ruling_forest_aglp

__all__ = [
    "DETERMINISTIC_PHASE_KEYS", "delta_coloring_deterministic", "ruling_distance",
]


DETERMINISTIC_PHASE_KEYS: dict[str, tuple[str, ...]] = {
    "0:linial": ("linial_palette",),
    "1:ruling-forest": ("ruling_distance", "b0_size"),
    "2:layers": ("num_layers",),
    "3:color-layers": ("layer_iterations",),
    "4:color-b0-brooks": ("fix_modes", "fix_slots", "max_fix_radius"),
}


def ruling_distance(n: int, delta: int) -> int:
    """The paper's R = 4·log_{Δ-1} n + 1 (>= 5, integer-rounded)."""
    base = max(2, delta - 1)
    return max(5, 4 * math.ceil(math.log(max(2, n)) / math.log(base)) + 1)


def delta_coloring_deterministic(
    graph: Graph, strict: bool = False, ruling_k: int | None = None
) -> EngineRun:
    """Theorem 4: deterministic Δ-coloring of a nice graph (so Δ >= 3).

    The engine behind ``solve(graph, algorithm="deterministic")``, which
    checks niceness and validates the output.  ``ruling_k`` overrides
    the ruling distance R (exposed for the A3-style ablations); the
    default is the paper's 4·log_{Δ-1} n + 1.
    """
    delta = graph.max_degree()
    n = graph.n
    ledger = RoundLedger()
    colors = [UNCOLORED] * n
    stats: dict[str, object] = {}

    with ledger.phase("0:linial"):
        linial = linial_coloring(graph, ledger)
    stats["linial_palette"] = linial.palette

    big_r = ruling_k if ruling_k is not None else ruling_distance(n, delta)
    stats["ruling_distance"] = big_r
    with ledger.phase("1:ruling-forest"):
        ruling = ruling_forest_aglp(graph, big_r, ledger)
    base_layer = ruling.nodes
    stats["b0_size"] = len(base_layer)

    with ledger.phase("2:layers"):
        layers = distance_layers(graph, base_layer)
        ledger.charge(len(layers))
    stats["num_layers"] = len(layers) - 1
    if strict:
        covered = {v for layer in layers for v in layer}
        if len(covered) != n:
            raise AlgorithmContractError("ruling forest layers do not cover the graph")

    with ledger.phase("3:color-layers"):
        report = color_layers_in_reverse(
            graph, colors, layers, delta, "deterministic", ledger,
            base_colors=linial.colors, palette=linial.palette, strict=strict,
        )
    stats["layer_iterations"] = report.total_iterations

    with ledger.phase("4:color-b0-brooks"):
        fix_stats = _fix_base_layer(graph, colors, base_layer, delta, big_r, ledger)
    stats.update(fix_stats)

    return EngineRun.from_ledger(
        "deterministic", colors, delta, ledger, stats, DETERMINISTIC_PHASE_KEYS
    )


def _fix_base_layer(
    graph: Graph,
    colors: list[int],
    base_layer: set[int],
    delta: int,
    big_r: int,
    ledger: RoundLedger,
) -> dict[str, object]:
    """Phase 4: repair every B0 node via Theorem 5, packing disjoint
    repairs into shared round slots.

    Each fix is executed sequentially on the shared color array (always
    correct); round accounting groups fixes whose touched regions (plus a
    one-hop halo) are disjoint — those run concurrently in LOCAL.
    """
    budget_radius = max(2, (big_r - 1) // 2)
    slots: list[tuple[set[int], int]] = []
    modes: dict[str, int] = {}
    max_fix_radius = 0
    for v in sorted(base_layer):
        if colors[v] != UNCOLORED:
            continue
        local = RoundLedger()
        result = fix_uncolored_node(
            graph, colors, v, delta, max_radius=budget_radius, ledger=local
        )
        modes[result.mode] = modes.get(result.mode, 0) + 1
        max_fix_radius = max(max_fix_radius, result.radius)
        region = set(result.recolored) | {v}
        halo = set(region)
        for u in region:
            halo.update(graph.neighbors_csr(u))
        placed = False
        for index, (blocked, cost) in enumerate(slots):
            if not (halo & blocked):
                blocked |= halo
                slots[index] = (blocked, max(cost, local.total_rounds))
                placed = True
                break
        if not placed:
            slots.append((halo, local.total_rounds))
    for _blocked, cost in slots:
        ledger.charge(cost)
    return {
        "fix_modes": modes,
        "fix_slots": len(slots),
        "max_fix_radius": max_fix_radius,
    }
