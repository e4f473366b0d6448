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

The pipeline is :data:`DETERMINISTIC_PHASES` over a :class:`LayeredState`.
Its ruling forest, layers, reverse layer coloring and B0 fix loop are
shared with :mod:`repro.baselines.panconesi_srinivasan`; the two phase
lists differ only in the layer engine, the B0 accounting (packed slots
against the max of all fixes) and the stats each phase records.

Theorem 21 (the 2^O(√log n) re-proof of [PS95]) prescribes the same
pipeline with a network-decomposition-based ruling set; our AGLP + color
class engine already runs in O(Δ²·log² n) ⊆ 2^{O(√log n)} rounds for
Δ = 2^{o(√log n)}, so :func:`delta_coloring_deterministic` subsumes it
(benchmarks/bench_e3_deterministic.py measures it against the bound).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import AlgorithmContractError
from repro.core.brooks import BrooksFixResult, fix_uncolored_node
from repro.core.layering import LayerColoringReport, ListEngine, color_layers_in_reverse
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import EngineRun, Phase, PipelineState, run_phases
from repro.primitives.linial import linial_coloring
from repro.primitives.ruling_sets import ruling_forest_aglp

__all__ = [
    "DETERMINISTIC_PHASES", "LayeredState", "color_layers", "delta_coloring_deterministic",
    "fix_base_layer", "layer_by_distance", "ruling_distance", "ruling_forest",
]


def ruling_distance(n: int, delta: int) -> int:
    """The paper's R = 4·log_{Δ-1} n + 1 (>= 5, integer-rounded)."""
    base = max(2, delta - 1)
    return max(5, 4 * math.ceil(math.log(max(2, n)) / math.log(base)) + 1)


@dataclass
class LayeredState(PipelineState):
    """What the layering pipeline's phases hand to each other.  ``big_r``
    is the ruling distance R (None: :func:`ruling_distance`)."""

    big_r: int | None = None
    base_colors: list[int] | None = None
    palette: int | None = None
    base_layer: set[int] = field(default_factory=set)
    layers: list[list[int]] = field(default_factory=list)


def ruling_forest(s: LayeredState) -> dict[str, object]:
    """B0 = an (R, (R-1)·⌈log₂ n⌉) AGLP ruling forest."""
    if s.big_r is None:
        s.big_r = ruling_distance(s.graph.n, s.delta)
    s.base_layer = ruling_forest_aglp(s.graph, s.big_r, s.ledger).nodes
    return {"ruling_distance": s.big_r, "b0_size": len(s.base_layer)}


def layer_by_distance(s: LayeredState) -> dict[str, object]:
    """B_0, B_1, .. by distance to B0, one round per layer."""
    s.layers = distance_layers(s.graph, s.base_layer)
    s.ledger.charge(len(s.layers))
    if s.strict and sum(map(len, s.layers)) != s.graph.n:
        raise AlgorithmContractError("ruling forest layers do not cover the graph")
    return {"num_layers": len(s.layers) - 1}


def color_layers(s: LayeredState, engine: ListEngine) -> LayerColoringReport:
    """B_z, .., B_1 in reverse, each a (deg+1)-list instance for ``engine``."""
    return color_layers_in_reverse(
        s.graph, s.colors, s.layers, s.delta, engine, s.ledger, s.rng,
        base_colors=s.base_colors, palette=s.palette, strict=s.strict,
    )


def fix_base_layer(s: LayeredState) -> list[tuple[int, BrooksFixResult]]:
    """Theorem 5 on every B0 node still uncolored, in node order, each
    within radius < R/2 on the shared colors.  Charges nothing: each
    engine charges the fixes' ``rounds`` by its own accounting."""
    budget_radius = max(2, (s.big_r - 1) // 2)
    return [
        (v, fix_uncolored_node(s.graph, s.colors, v, s.delta, max_radius=budget_radius))
        for v in sorted(s.base_layer)
        if s.colors[v] == UNCOLORED
    ]


def _linial(s: LayeredState) -> dict[str, object]:
    linial = linial_coloring(s.graph, s.ledger)
    s.base_colors, s.palette = linial.colors, linial.palette
    return {"linial_palette": linial.palette}


def _color_layers(s: LayeredState) -> dict[str, object]:
    return {"layer_iterations": color_layers(s, "deterministic").total_iterations}


def _fix_b0_in_slots(s: LayeredState) -> dict[str, object]:
    """Fixes whose touched regions (plus a one-hop halo) are disjoint run
    concurrently in LOCAL, so they share a round slot, which costs its
    slowest fix."""
    fixes = fix_base_layer(s)
    slots: list[tuple[set[int], int]] = []
    for v, result in fixes:
        halo = set(result.recolored) | {v}
        for u in list(halo):
            halo.update(s.graph.neighbors_csr(u))
        for index, (blocked, cost) in enumerate(slots):
            if not (halo & blocked):
                blocked |= halo
                slots[index] = (blocked, max(cost, result.rounds))
                break
        else:
            slots.append((halo, result.rounds))
    for _blocked, cost in slots:
        s.ledger.charge(cost)
    return {
        "fix_modes": dict(Counter(result.mode for _v, result in fixes)),
        "fix_slots": len(slots),
        "max_fix_radius": max((result.radius for _v, result in fixes), default=0),
    }


DETERMINISTIC_PHASES: tuple[Phase, ...] = (
    ("0:linial", _linial),
    ("1:ruling-forest", ruling_forest),
    ("2:layers", layer_by_distance),
    ("3:color-layers", _color_layers),
    ("4:color-b0-brooks", _fix_b0_in_slots),
)


def delta_coloring_deterministic(
    graph: Graph, strict: bool = False, ruling_k: int | None = None
) -> EngineRun:
    """Theorem 4: deterministic Δ-coloring of a nice graph (so Δ >= 3).

    The engine behind ``solve(graph, algorithm="deterministic")``, which
    checks niceness and validates the output.  ``ruling_k`` overrides
    the ruling distance R (exposed for the A3-style ablations); the
    default is the paper's 4·log_{Δ-1} n + 1.
    """
    state = run_phases(LayeredState(graph, strict, big_r=ruling_k), DETERMINISTIC_PHASES)
    return EngineRun.from_state("deterministic", state)
