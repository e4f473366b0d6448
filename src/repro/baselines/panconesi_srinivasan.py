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

The pipeline is :data:`PS_PHASES`: Theorem 4's phases
(:mod:`repro.core.deterministic`) with random trials as the layer engine
and the B0 fixes charged as if all ran at once (the max of all fixes).
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core.deterministic import (
    LayeredState, color_layers, fix_base_layer, layer_by_distance, ruling_forest,
)
from repro.graphs.graph import Graph
from repro.local.rounds import EngineRun, Phase, run_phases

__all__ = ["PS_PHASES", "ps_delta_coloring"]


def _color_layers(s: LayeredState) -> dict[str, object]:
    """Iterated random trials, O(log n) rounds per layer w.h.p."""
    report = color_layers(s, "random")
    return {
        "layer_iterations": report.total_iterations,
        "max_layer_iterations": report.max_iterations_per_layer,
    }


def _fix_b0_at_once(s: LayeredState) -> dict[str, object]:
    fixes = fix_base_layer(s)
    s.ledger.charge_max([result.rounds for _v, result in fixes])
    return {"fix_modes": dict(Counter(result.mode for _v, result in fixes))}


PS_PHASES: tuple[Phase, ...] = (
    ("1:ruling-forest", ruling_forest),
    ("2:layers", layer_by_distance),
    ("3:color-layers", _color_layers),
    ("4:color-b0-brooks", _fix_b0_at_once),
)


def ps_delta_coloring(
    graph: Graph, seed: int = 0, strict: bool = False
) -> EngineRun:
    """Δ-color a nice graph with the PS-shaped baseline (module docstring).

    The engine behind ``solve(graph, algorithm="ps")``, which checks
    niceness and validates the output.
    """
    state = LayeredState(graph, strict, random.Random(seed))
    return EngineRun.from_state("ps", run_phases(state, PS_PHASES))
