"""The randomized Δ-coloring algorithms (Section 4; Theorems 1 and 3).

Both variants follow the paper's nine phases:

I   Removing degree-choosable components with small radius
    (1) per-node DCC selection at radius r_dcc;
    (2) ruling set of the virtual graph G_DCC → base layer B0;
    (3) B-layers by distance to B0; remove B0..Bs.
II  Shattering of the remaining graph H
    (4) the marking process (selection probability p, backoff b) creates
        T-nodes;
    (5) happiness layers C_0..C_{2r} (boundary handling included);
    (6) small leftover components are colored (skipped when L = ∅, which
        is the designed-for case of the small-Δ variant, Lemma 31).
III Color happy nodes (7): C-layers in reverse (including C_0 — its
    T-node/boundary slack makes it a deg+1 instance too).
IV  Color DCC layers (8): B-layers in reverse; (9) B0's components by
    degree-choosability (they are pairwise non-adjacent by the ruling
    property).

The pipeline is :data:`RANDOMIZED_PHASES` over a :class:`RandomizedState`:
each phase reads what the ones before it left there and returns the stats
it records.  Phase (8) opens the color workspace that phase (9) colors B0
in and closes, so the two share one mirror and one write-back.

Variant differences (paper: r = O(1) for Δ >= 4 vs r = Θ(log log n) for
Δ = O(1); engines of Theorems 18/19) are captured by
:class:`RandomizedParams` presets.  The selection probability and radii
use practical presets instead of the asymptotic constants, which select
essentially no node at any feasible n (the paper's p = Δ^{-b}); the
counted-and-reported small-component fallbacks keep the pipeline correct
on every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import AlgorithmContractError
from repro.core.dcc import DCCDetection, detect_dccs, virtual_graph_ruling_set
from repro.core.happiness import HappinessLayers, build_happiness_layers
from repro.core.layering import color_layers_in_reverse
from repro.core.marking import MarkingOutcome, default_selection_probability, marking_process
from repro.core.small_components import SmallComponentsReport, color_small_components
from repro.graphs.bfs import distance_layers_and_rest
from repro.graphs.graph import Graph
from repro.local.rounds import EngineRun, Phase, PipelineState, run_phases
from repro.primitives.linial import linial_coloring
from repro.primitives.list_coloring import ColorWorkspace

__all__ = [
    "RANDOMIZED_PHASES",
    "RandomizedParams",
    "RandomizedState",
    "large_delta_params",
    "run_pipeline",
    "small_delta_params",
]


@dataclass
class RandomizedParams:
    """Tunable knobs of the randomized pipeline.

    ``dcc_radius`` — phase (1) detection radius r; the paper uses O(1) for
    Δ >= 4 and Θ(log log n) for small Δ.
    ``backoff`` — marking backoff b (>= 5 enforced; paper: 6 or 12).
    ``selection_p`` — phase (4) selection probability (None = practical
    preset ≈ 1.3/E|B_b|; benchmarks/bench_a1_backoff.py sweeps it against
    the paper's Δ^{-b}).
    ``happiness_radius`` — the r of phase (5); None = auto-tuned so that
    the expected number of T-nodes within distance r is ≈ ``coverage_goal``.
    ``engine`` — per-layer list-coloring engine ("hybrid" matches Theorem
    19's shape; "deterministic" matches Theorem 18's).
    """

    dcc_radius: int = 2
    backoff: int = 6
    selection_p: float | None = None
    happiness_radius: int | None = None
    coverage_goal: float = 6.0
    engine: str = "hybrid"
    seed: int = 0
    strict: bool = False

    @staticmethod
    def small_delta(n: int, delta: int, seed: int = 0, strict: bool = False) -> "RandomizedParams":
        """Theorem 1 preset: detection radius grows with log log n,
        deterministic (n-independent) per-layer engine."""
        loglog = max(1.0, math.log2(max(2.0, math.log2(max(4, n)))))
        return RandomizedParams(
            dcc_radius=max(2, min(5, round(loglog / 2) + 1)),
            backoff=6,
            engine="deterministic",
            seed=seed,
            strict=strict,
        )

    @staticmethod
    def large_delta(n: int, delta: int, seed: int = 0, strict: bool = False) -> "RandomizedParams":
        """Theorem 3 preset: constant detection radius, hybrid
        (O(log Δ)-shaped) per-layer engine."""
        return RandomizedParams(
            dcc_radius=2,
            backoff=6,
            engine="hybrid",
            seed=seed,
            strict=strict,
        )


def small_delta_params(
    graph: Graph, seed: int, strict: bool, params: RandomizedParams | None
) -> RandomizedParams:
    """``params``, or the Theorem 1 preset; raises unless Δ >= 3."""
    delta = graph.max_degree()
    if delta < 3:
        raise AlgorithmContractError(f"small-Δ algorithm needs Δ >= 3, got {delta}")
    if params is None:
        params = RandomizedParams.small_delta(graph.n, delta, seed=seed, strict=strict)
    return params


def large_delta_params(
    graph: Graph, seed: int, strict: bool, params: RandomizedParams | None
) -> RandomizedParams:
    """``params``, or the Theorem 3 preset; raises unless Δ >= 4."""
    delta = graph.max_degree()
    if delta < 4:
        raise AlgorithmContractError(f"large-Δ algorithm needs Δ >= 4, got {delta}")
    if params is None:
        params = RandomizedParams.large_delta(graph.n, delta, seed=seed, strict=strict)
    return params


@dataclass
class RandomizedState(PipelineState):
    """What the nine phases hand to each other (module docstring)."""

    params: RandomizedParams = field(default_factory=RandomizedParams)
    base_colors: list[int] = field(default_factory=list)
    palette: int = 0
    detection: DCCDetection = field(default_factory=DCCDetection)
    b0_components: list[tuple[int, ...]] = field(default_factory=list)
    b_layers: list[list[int]] = field(default_factory=list)
    h_nodes: set[int] = field(default_factory=set)
    h_mask: bytes = b""  # H's byte mask, from phase (3)
    selection_p: float = 0.0
    marking: MarkingOutcome = field(default_factory=MarkingOutcome)
    happiness: HappinessLayers = field(default_factory=HappinessLayers)
    # Open from phase (8) to the end of phase (9): every colored neighbour
    # of a B0 component is in phase (8)'s view, which is written back to
    # ``colors`` once, at the end of phase (9).
    workspace: ColorWorkspace | None = None


def _linial(s: RandomizedState) -> dict[str, object]:
    linial = linial_coloring(s.graph, s.ledger)
    s.base_colors, s.palette = linial.colors, linial.palette
    return {"linial_palette": linial.palette, "linial_iterations": linial.iterations}


def _dcc_detect(s: RandomizedState) -> dict[str, object]:
    s.detection = detect_dccs(s.graph, s.params.dcc_radius, ledger=s.ledger)
    return {"num_dccs": len(s.detection.dccs), "nodes_in_dccs": len(s.detection.nodes_in_dccs)}


def _dcc_ruling_set(s: RandomizedState) -> dict[str, object]:
    dccs = s.detection.dccs
    chosen, iterations = virtual_graph_ruling_set(
        s.graph, dccs, rounds_per_virtual=max(1, 2 * s.params.dcc_radius + 1),
        ledger=s.ledger, rng=s.rng, packed=s.detection.packed,
    )
    s.b0_components = [dccs[idx] for idx in chosen]
    size = sum(map(len, s.b0_components))  # chosen DCCs are disjoint
    return {"b0_components": len(chosen), "b0_size": size, "virtual_ruling_iterations": iterations}


def _b_layers(s: RandomizedState) -> dict[str, object]:
    """Phase (3).  Depth covers every DCC-selecting node: a non-chosen
    DCC conflicts with a chosen one, so its nodes lie within
    (diameter + 1 + diameter) <= 4·r_dcc + 1 of B0."""
    depth = 4 * s.params.dcc_radius + 2
    s.ledger.charge(depth)
    base_layer = [v for component in s.b0_components for v in component]
    s.b_layers, s.h_nodes, s.h_mask = distance_layers_and_rest(
        s.graph, base_layer, max_depth=depth
    )
    if s.strict and base_layer:
        layered = {v for layer in s.b_layers for v in layer}
        if not s.detection.nodes_in_dccs <= layered:
            missing = len(s.detection.nodes_in_dccs - layered)
            raise AlgorithmContractError(f"phase 3 left {missing} DCC nodes outside the B-layers")
    return {"h_size": len(s.h_nodes)}


def _marking(s: RandomizedState) -> dict[str, object]:
    p = s.params.selection_p
    if p is None:
        p = default_selection_probability(s.delta, s.params.backoff)
    s.selection_p = p
    s.marking = marking = marking_process(
        s.graph, s.h_nodes, s.colors, p, s.params.backoff, s.rng, s.ledger
    )
    return {
        "selection_p": p, "t_nodes": len(marking.t_nodes), "marked": len(marking.marked),
        "initially_selected": marking.initially_selected, "backed_off": marking.backed_off,
    }


def _happiness_layers(s: RandomizedState) -> dict[str, object]:
    params, radius = s.params, s.params.happiness_radius
    if radius is None:
        radius = _auto_happiness_radius(
            s.graph, s.delta, s.selection_p, params.backoff, params.coverage_goal
        )
    s.happiness = happy = build_happiness_layers(
        s.graph, s.colors, s.h_nodes, s.h_mask, s.marking, s.delta, radius, s.ledger
    )
    return {
        "happiness_radius": radius, "c_layers": len(happy.layers),
        "leftover_nodes": len(happy.leftover), "uncolored_marks": happy.uncolored_marks,
    }


def _small_components(s: RandomizedState) -> dict[str, object]:
    report = SmallComponentsReport()
    if s.happiness.leftover:
        report = color_small_components(
            s.graph, s.colors, s.happiness.leftover, s.delta,
            dcc_radius=max(2, s.params.dcc_radius), ledger=s.ledger, rng=s.rng,
            engine=s.params.engine, base_colors=s.base_colors, palette=s.palette,
            strict=s.strict,
        )
    sizes = report.component_sizes
    return {
        "leftover_components": len(sizes), "leftover_max_component": max(sizes, default=0),
        "fallbacks": report.fallbacks,
    }


def _in_reverse(s: RandomizedState, layers: list[list[int]], include_layer_zero: bool) -> None:
    color_layers_in_reverse(
        s.graph, s.colors, layers, s.delta, s.params.engine, s.ledger, s.rng,
        base_colors=s.base_colors, palette=s.palette,
        include_layer_zero=include_layer_zero, strict=s.strict, workspace=s.workspace,
    )


def _c_layers(s: RandomizedState) -> dict[str, object]:
    _in_reverse(s, s.happiness.layers, include_layer_zero=True)
    return {}


def _color_b_layers(s: RandomizedState) -> dict[str, object]:
    targets = sum(map(len, s.b_layers[1:])) + sum(map(len, s.b0_components))
    s.workspace = ColorWorkspace(s.graph, s.colors, targets)
    _in_reverse(s, s.b_layers, include_layer_zero=False)
    return {}


def _color_b0(s: RandomizedState) -> dict[str, object]:
    """Phase (9): each B0 component by degree-choosability, in parallel
    with the others in 2r+1 rounds."""
    s.workspace.degree_list(s.b0_components, s.delta)
    s.ledger.charge_max([2 * s.params.dcc_radius + 1] * len(s.b0_components))
    s.workspace.close()
    s.workspace = None
    return {}


RANDOMIZED_PHASES: tuple[Phase, ...] = (
    ("0:linial", _linial),
    ("1:dcc-detect", _dcc_detect),
    ("2:dcc-ruling-set", _dcc_ruling_set),
    ("3:b-layers", _b_layers),
    ("4:marking", _marking),
    ("5:happiness-layers", _happiness_layers),
    ("6:small-components", _small_components),
    ("7:c-layers", _c_layers),
    ("8:b-layers", _color_b_layers),
    ("9:b0", _color_b0),
)


def run_pipeline(
    graph: Graph, params: RandomizedParams, algorithm: str = "randomized"
) -> EngineRun:
    """The nine phases on a nice graph (see module docstring).

    Neither checks niceness nor validates the output:
    :func:`repro.api.solve` does each once per solve.  In
    ``params.strict`` mode every per-phase contract is checked.
    ``algorithm`` is the registry name the run is recorded under.
    """
    state = RandomizedState(graph, params.strict, random.Random(params.seed), params=params)
    return EngineRun.from_state(algorithm, run_phases(state, RANDOMIZED_PHASES), params.seed)


def _auto_happiness_radius(
    graph: Graph, delta: int, p: float, backoff: int, coverage_goal: float
) -> int:
    """Radius r such that a radius-r ball is expected to contain about
    ``coverage_goal`` surviving T-nodes.

    Survival probability of a selected node ≈ (1-p)^{|B_b|}; ball sizes
    use the (Δ-1)-ary growth estimate of Lemmas 12/14.  Clamped to
    [4, 24]; the 2r BFS depth of phase (5) is the dominant cost this knob
    controls, and experiment E1's measured growth in n comes from it.
    """
    growth = max(2, delta - 1)
    ball_b = 1 + delta * sum(growth ** i for i in range(backoff))
    survive = (1 - p) ** ball_b
    density = max(p * survive * 0.5, 1e-12)
    need = coverage_goal / density
    r = 1
    ball = 1.0
    frontier = float(delta)
    while ball < need and r < 24:
        ball += frontier
        frontier *= growth
        r += 1
    return max(4, r)
