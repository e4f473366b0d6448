"""Coloring the small leftover components (Section 4.3, phase (6)).

After the shattering phases (4)-(5), the unhappy remainder L consists of
small connected components w.h.p. (Lemmas 23/24).  Each component C is
colored *before* the C-layers, while its surroundings look like:

* neighbours inside C — uncolored;
* neighbours in the outermost happiness layer C_{2r} — uncolored (colored
  later, in phase (7)): these make a node *free*;
* marked neighbours — colored 1 (fixed).

The paper's per-component algorithm (Section 4.3) is reproduced:

1. free nodes (degree < Δ, or an uncolored neighbour outside C) select
   themselves; nodes in a DCC of radius <= R select one;
2. a ruling set M' of the virtual graph C_DCC (free nodes + DCCs) is
   computed (virtual Luby, as in phase (2));
3. D-layers by distance to M'; layers are colored in reverse as deg+1
   list instances; D_0's DCCs are colored by degree-choosability and its
   free nodes take their guaranteed free color.

Lemmas 26/27 guarantee (under the paper's asymptotic parameters) that D_0
is non-empty and the D-layers exhaust C.  With practical parameters either
can fail on unlucky components; the implementation then falls back to
solving C directly as a degree-list instance (fallbacks are counted in
:class:`SmallComponentsReport` and reported as the solve's ``fallbacks``
stat).  The backoff >= 5 invariant of the marking
process guarantees the fallback instance is feasible: marks of distinct
T-nodes are never adjacent, so a component squeezed between marks always
retains a DCC, a free node, or a degree-deficient node.

Components are node-disjoint and non-adjacent (maximal connected pieces of
L), so they are processed concurrently; the charged LOCAL cost is the max
of the per-component costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.core.dcc import DCCScratch, detect_dccs, virtual_graph_ruling_set
from repro.core.degree_choosable import color_against_outside
from repro.core.layering import color_layers_in_reverse
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import first_available_color, gather_cost

__all__ = ["SmallComponentsReport", "color_small_components"]


@dataclass
class SmallComponentsReport:
    """Statistics of phase (6) — experiment E7's component table.

    ``component_sizes`` is the size distribution the shattering lemma
    bounds; ``fallbacks`` counts components that needed the direct
    degree-list fallback.
    """

    component_sizes: list[int] = field(default_factory=list)
    free_node_components: int = 0
    fallbacks: int = 0


def color_small_components(
    graph: Graph,
    colors: list[int],
    leftover: set[int],
    delta: int,
    dcc_radius: int,
    ledger: RoundLedger,
    rng: random.Random | None = None,
    engine: str = "hybrid",
    base_colors: list[int] | None = None,
    palette: int | None = None,
    strict: bool = False,
) -> SmallComponentsReport:
    """Phase (6): Δ-color every component of ``leftover`` in place.

    ``engine`` selects the per-layer list-coloring engine ("hybrid",
    "random", or "deterministic" with ``base_colors``/``palette``).
    """
    rng = rng if rng is not None else random.Random(0)
    report = SmallComponentsReport()
    components = graph.connected_components(leftover)
    costs = []
    # One O(n) scratch shared by every per-component detect_dccs and
    # ruling set call (components are tiny; the allocations were not).
    scratch = DCCScratch(graph.n)
    for component in components:
        report.component_sizes.append(len(component))
        local = RoundLedger()
        _color_component(
            graph, colors, component, delta, dcc_radius, local, rng,
            engine, base_colors, palette, strict, report, scratch,
        )
        costs.append(local.total_rounds)
    ledger.charge_max(costs)
    return report


def _color_component(
    graph: Graph,
    colors: list[int],
    component: list[int],
    delta: int,
    dcc_radius: int,
    ledger: RoundLedger,
    rng: random.Random,
    engine: str,
    base_colors: list[int] | None,
    palette: int | None,
    strict: bool,
    report: SmallComponentsReport,
    scratch: DCCScratch | None = None,
) -> None:
    member_set = set(component)

    free_nodes = _free_nodes(graph, colors, member_set, delta)
    if free_nodes:
        report.free_node_components += 1

    detection = detect_dccs(
        graph, dcc_radius, active=member_set, ledger=ledger, scratch=scratch
    )
    # Virtual graph C_DCC: DCC subgraphs plus free-node singletons.
    systems: list[tuple[int, ...]] = list(detection.dccs)
    systems.extend((v,) for v in sorted(free_nodes))
    if not systems:
        _fallback(graph, colors, component, delta, ledger, report)
        return

    chosen, _iterations = virtual_graph_ruling_set(
        graph, systems, rounds_per_virtual=max(1, 2 * dcc_radius + 1),
        ledger=ledger, rng=rng, scratch=scratch,
    )
    seeds = {v for idx in chosen for v in systems[idx]}

    layers = distance_layers(graph, seeds, allowed=member_set)
    covered = {v for layer in layers for v in layer}
    if covered != member_set:
        # Lemma 26 failed under practical parameters: direct fallback.
        _fallback(graph, colors, component, delta, ledger, report)
        return

    color_layers_in_reverse(
        graph, colors, layers, delta, engine, ledger, rng,
        base_colors=base_colors, palette=palette, strict=strict,
    )

    # D_0: chosen DCCs by degree-choosability, chosen free nodes greedily.
    costs = []
    for idx in chosen:
        system = systems[idx]
        if len(system) == 1:
            v = system[0]
            colors[v] = first_available_color(graph, colors, v, delta)
            if colors[v] == UNCOLORED:
                raise AlgorithmContractError(
                    f"free node {v} had no available color in D_0"
                )
            costs.append(1)
        else:
            color_against_outside(graph, colors, system, delta)
            costs.append(2 * dcc_radius + 1)
    ledger.charge_max(costs)

    if strict:
        for v in component:
            if colors[v] == UNCOLORED:
                raise AlgorithmContractError(f"component node {v} left uncolored")


def _free_nodes(
    graph: Graph, colors: list[int], member_set: set[int], delta: int
) -> set[int]:
    """Free nodes of the component: degree < Δ, or an uncolored neighbour
    outside the component (an outer-happiness-layer node, colored later)."""
    offsets, indices = graph.csr()
    free = set()
    for v in member_set:
        if graph.degree(v) < delta:
            free.add(v)
            continue
        for u in indices[offsets[v] : offsets[v + 1]]:
            if u not in member_set and colors[u] == UNCOLORED:
                free.add(v)
                break
    return free


def _fallback(
    graph: Graph,
    colors: list[int],
    component: list[int],
    delta: int,
    ledger: RoundLedger,
    report: SmallComponentsReport,
) -> None:
    """Direct resolution: gather the component, solve it as a degree-list
    instance against its colored boundary (marked nodes at color 1)."""
    report.fallbacks += 1
    try:
        color_against_outside(graph, colors, component, delta)
    except InfeasibleListColoringError as error:
        raise AlgorithmContractError(
            f"leftover component of size {len(component)} is infeasible "
            f"against its marked boundary — the backoff >= 5 invariant "
            f"should make this impossible: {error}"
        ) from error
    ledger.charge(gather_cost(graph, component, set(component)))
