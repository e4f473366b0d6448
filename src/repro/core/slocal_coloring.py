"""SLOCAL Δ-coloring (Remark 17): Theorem 5 as a sequential-local algorithm.

Process the nodes in an arbitrary (even adversarial) order.  Each node,
when processed:

1. takes a free color if one exists among its already-colored neighbours
   (locality 1);
2. otherwise runs the Theorem 5 token walk — moving the "uncolored token"
   toward a deficient node, an uncolored region, or a degree-choosable
   component, recoloring only inside the walk's ball.

Lemma 16 bounds every walk by 2·log_{Δ-1} n, so the whole execution is an
SLOCAL(O(log_Δ n)) algorithm — the paper's Remark 17.  The returned
:class:`repro.local.slocal.SLocalRun` certifies the locality actually
used, which the tests compare against the bound.
"""

from __future__ import annotations

from repro.core.brooks import default_fix_radius, fix_uncolored_node
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.slocal import SLocalRun, SLocalSimulator

__all__ = ["slocal_delta_coloring"]


def slocal_delta_coloring(
    graph: Graph, order: list[int] | None = None
) -> tuple[list[int], SLocalRun]:
    """Δ-color a nice graph in the SLOCAL model (Remark 17).

    ``order`` is the adversarial processing order (default: by id).
    Returns ``(colors, run)`` where ``run`` certifies the per-node
    locality; the maximum is O(log_Δ n) by Lemma 16.  Neither checks
    niceness nor validates the output: ``solve(graph,
    algorithm="slocal")`` does both.
    """
    delta = graph.max_degree()
    sequence = order if order is not None else list(range(graph.n))
    colors = [UNCOLORED] * graph.n
    bound = default_fix_radius(graph.n, delta)

    def step(v: int, g: Graph, outputs: list[int]) -> tuple[set[int], int]:
        if outputs[v] != UNCOLORED:
            return set(), 0
        before = list(outputs)
        result = fix_uncolored_node(g, outputs, v, delta, max_radius=bound)
        written = {u for u in range(g.n) if outputs[u] != before[u]}
        written.add(v)
        # The walk reads the balls it searched: bounded by the result
        # radius plus one search ring.
        return written, max(1, result.radius + 1)

    simulator = SLocalSimulator(graph)
    run = simulator.run(sequence, step, colors)
    return colors, run
