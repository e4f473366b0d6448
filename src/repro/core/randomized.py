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
from repro.core.dcc import detect_dccs, virtual_graph_ruling_set
from repro.core.degree_choosable import degree_list_color
from repro.core.happiness import build_happiness_layers
from repro.core.layering import color_layers_in_reverse
from repro.core.marking import default_selection_probability, marking_process
from repro.core.small_components import SmallComponentsReport, color_small_components
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.properties import assert_nice
from repro.graphs.validation import UNCOLORED, validate_coloring
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring

__all__ = [
    "RandomizedParams",
    "DeltaColoringResult",
    "delta_coloring_randomized",
    "delta_coloring_small_delta",
    "delta_coloring_large_delta",
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
            backoff=6 if delta >= 4 else 6,
            engine="hybrid",
            seed=seed,
            strict=strict,
        )


@dataclass
class DeltaColoringResult:
    """Output of an end-to-end Δ-coloring run.

    ``rounds`` is the LOCAL total; ``phase_rounds`` the paper's cost
    decomposition; ``stats`` carries the structural quantities the
    benchmarks tabulate (DCC counts, T-node counts, leftover component
    sizes, fallbacks).
    """

    colors: list[int]
    delta: int
    rounds: int
    phase_rounds: dict[str, int] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)
    phase_wall: dict[str, float] = field(default_factory=dict)


def delta_coloring_small_delta(
    graph: Graph, seed: int = 0, strict: bool = False,
    params: RandomizedParams | None = None,
) -> DeltaColoringResult:
    """Theorem 1 / Corollary 2: randomized Δ-coloring tuned for Δ = O(1).

    Requires a nice graph with Δ >= 3.
    """
    return delta_coloring_randomized(
        graph, small_delta_params(graph, seed, strict, params)
    )


def delta_coloring_large_delta(
    graph: Graph, seed: int = 0, strict: bool = False,
    params: RandomizedParams | None = None,
) -> DeltaColoringResult:
    """Theorem 3: randomized Δ-coloring for Δ >= 4.

    Requires a nice graph with Δ >= 4.
    """
    return delta_coloring_randomized(
        graph, large_delta_params(graph, seed, strict, params)
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


def delta_coloring_randomized(
    graph: Graph, params: RandomizedParams
) -> DeltaColoringResult:
    """The nine-phase randomized Δ-coloring pipeline (see module docstring).

    Checks that ``graph`` is nice first and validates the final coloring
    unconditionally; in ``params.strict`` mode additionally checks every
    per-phase contract.
    """
    assert_nice(graph)
    result = run_pipeline(graph, params)
    validate_coloring(graph, result.colors, max_colors=result.delta)
    return result


def run_pipeline(graph: Graph, params: RandomizedParams) -> DeltaColoringResult:
    """The nine phases on a graph the caller has already checked is nice.

    Neither checks niceness nor validates the output: the solver facade
    (:mod:`repro.api.registry`) does each once per solve, and
    :func:`delta_coloring_randomized` does both for direct callers.
    """
    delta = graph.max_degree()
    n = graph.n
    rng = random.Random(params.seed)
    ledger = RoundLedger()
    colors = [UNCOLORED] * n
    stats: dict[str, object] = {}

    # Phase 0: Linial base coloring for symmetry breaking.
    with ledger.phase("0:linial"):
        linial = linial_coloring(graph, ledger)
    base_colors, palette = linial.colors, linial.palette
    stats["linial_palette"] = palette
    stats["linial_iterations"] = linial.iterations

    # Phases (1)+(2): DCC detection and base layer B0.
    r_dcc = params.dcc_radius
    with ledger.phase("1:dcc-detect"):
        detection = detect_dccs(graph, r_dcc, ledger=ledger)
    stats["num_dccs"] = len(detection.dccs)
    stats["nodes_in_dccs"] = len(detection.nodes_in_dccs)
    with ledger.phase("2:dcc-ruling-set"):
        chosen, vr_iterations = virtual_graph_ruling_set(
            graph, detection.dccs, rounds_per_virtual=max(1, 2 * r_dcc + 1),
            ledger=ledger, rng=rng,
        )
    base_layer = {v for idx in chosen for v in detection.dccs[idx]}
    stats["b0_components"] = len(chosen)
    stats["b0_size"] = len(base_layer)
    stats["virtual_ruling_iterations"] = vr_iterations

    # Phase (3): B-layers.  Depth covers every DCC-selecting node: a
    # non-chosen DCC conflicts with a chosen one, so its nodes lie within
    # (diameter + 1 + diameter) <= 4·r_dcc + 1 of B0.
    s_depth = 4 * r_dcc + 2
    with ledger.phase("3:b-layers"):
        ledger.charge(s_depth)
        b_layers = (
            distance_layers(graph, base_layer, max_depth=s_depth) if base_layer else []
        )
    layered_b = {v for layer in b_layers for v in layer}
    if params.strict and not detection.nodes_in_dccs <= layered_b | (set() if base_layer else detection.nodes_in_dccs):
        raise AlgorithmContractError("phase 3 failed to cover all DCC nodes")
    if params.strict and base_layer:
        uncovered = detection.nodes_in_dccs - layered_b
        if uncovered:
            raise AlgorithmContractError(
                f"phase 3 left {len(uncovered)} DCC nodes outside the B-layers"
            )
    h_nodes = {v for v in range(n) if v not in layered_b}
    stats["h_size"] = len(h_nodes)

    # Phase (4): marking.
    p = params.selection_p
    if p is None:
        p = default_selection_probability(delta, params.backoff)
    with ledger.phase("4:marking"):
        marking = marking_process(
            graph, h_nodes, colors, p, params.backoff, rng, ledger
        )
    stats["selection_p"] = p
    stats["t_nodes"] = len(marking.t_nodes)
    stats["marked"] = len(marking.marked)
    stats["initially_selected"] = marking.initially_selected
    stats["backed_off"] = marking.backed_off

    # Phase (5): happiness layers.
    r_happy = params.happiness_radius
    if r_happy is None:
        r_happy = _auto_happiness_radius(graph, delta, p, params.backoff, params.coverage_goal)
    with ledger.phase("5:happiness-layers"):
        happiness = build_happiness_layers(
            graph, colors, h_nodes, marking, delta, r_happy, ledger
        )
    stats["happiness_radius"] = r_happy
    stats["c_layers"] = len(happiness.layers)
    stats["leftover_nodes"] = len(happiness.leftover)
    stats["uncolored_marks"] = happiness.uncolored_marks

    # Phase (6): small components.
    with ledger.phase("6:small-components"):
        if happiness.leftover:
            small_report = color_small_components(
                graph, colors, happiness.leftover, delta,
                dcc_radius=max(2, r_dcc), ledger=ledger, rng=rng,
                engine=params.engine, base_colors=base_colors, palette=palette,
                strict=params.strict,
            )
        else:
            small_report = SmallComponentsReport()
    stats["leftover_components"] = len(small_report.component_sizes)
    stats["leftover_max_component"] = max(small_report.component_sizes, default=0)
    stats["fallbacks"] = small_report.fallbacks

    # Phase (7): C-layers in reverse, including C_0.
    with ledger.phase("7:c-layers"):
        color_layers_in_reverse(
            graph, colors, happiness.layers, delta, params.engine, ledger, rng,
            base_colors=base_colors, palette=palette,
            include_layer_zero=True, strict=params.strict,
        )

    # Phase (8): B-layers in reverse.
    with ledger.phase("8:b-layers"):
        color_layers_in_reverse(
            graph, colors, b_layers, delta, params.engine, ledger, rng,
            base_colors=base_colors, palette=palette,
            include_layer_zero=False, strict=params.strict,
        )

    # Phase (9): B0 components by degree-choosability.
    with ledger.phase("9:b0"):
        costs = []
        for idx in chosen:
            block = set(detection.dccs[idx])
            _color_base_component(graph, colors, block, delta)
            costs.append(2 * r_dcc + 1)
        ledger.charge_max(costs)

    return DeltaColoringResult(
        colors=colors,
        delta=delta,
        rounds=ledger.total_rounds,
        phase_rounds=ledger.snapshot(),
        stats=stats,
        phase_wall=ledger.wall_snapshot(),
    )


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


def _color_base_component(
    graph: Graph, colors: list[int], block: set[int], max_colors: int
) -> None:
    """Phase (9): color one base-layer DCC by degree-choosability."""
    sub, originals = graph.subgraph(sorted(block))
    adj = graph.adj
    lists = []
    for u in originals:
        taken = {
            colors[w]
            for w in adj[u]
            if colors[w] != UNCOLORED and w not in block
        }
        lists.append({c for c in range(1, max_colors + 1) if c not in taken})
    assignment = degree_list_color(sub, lists)
    for i, u in enumerate(originals):
        colors[u] = assignment[i]
