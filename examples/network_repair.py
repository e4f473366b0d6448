"""Local repair after a node reset — Theorem 5 in action.

Scenario: a running network already holds a valid Δ-coloring (say, TDMA
slots) — computed here through the solver facade (``repro.solve``).  A
node crashes, loses its slot, and rejoins; worse, its neighbourhood may
have been re-arranged so that all Δ slots appear around it.  Recomputing
the whole schedule is wasteful; the distributed Brooks' theorem
(Theorem 5) guarantees the coloring can be mended by changing slots only
within radius 2·log_{Δ-1} n of the rejoining node.

The demo colors a network, then repeatedly knocks out a node, re-colors
its surroundings from scratch (the adversarial case — simply restoring
the old color is the easy case), repairs locally, and reports how far the
repair reached vs the theorem's bound.

Run:  python examples/network_repair.py
"""

import random

from repro import (
    Graph,
    UNCOLORED,
    default_fix_radius,
    degree_list_color,
    fix_uncolored_node,
    random_regular_graph,
    solve,
    validate_coloring,
)
from repro.errors import InfeasibleListColoringError


def scramble_without(graph: Graph, v: int, delta: int, rng: random.Random):
    """Color G−v from scratch (no memory of v's old slot), randomized."""
    colors = [UNCOLORED] * graph.n
    rest = [u for u in range(graph.n) if u != v]
    sub, originals = graph.subgraph(rest)
    for component in sub.connected_components():
        comp_orig = sorted(originals[i] for i in component)
        sub2, orig2 = graph.subgraph(comp_orig)
        try:
            assignment = degree_list_color(
                sub2, [set(range(1, delta + 1)) for _ in range(sub2.n)]
            )
        except InfeasibleListColoringError:
            return None
        for i, u in enumerate(orig2):
            colors[u] = assignment[i]
    for _ in range(5 * graph.n):  # Glauber dynamics: diversify the coloring
        u = rng.randrange(graph.n)
        if u == v:
            continue
        used = {colors[w] for w in graph.adj[u] if w != v and colors[w] != UNCOLORED}
        options = [c for c in range(1, delta + 1) if c not in used and c != colors[u]]
        if options:
            colors[u] = rng.choice(options)
    return colors


def main() -> None:
    delta = 3
    graph = random_regular_graph(1000, delta, seed=5)
    # The running network's schedule: one facade call, Δ slots.
    schedule = solve(graph, seed=5)
    print(f"network: n={graph.n}, Δ={delta}; initial schedule by "
          f"[{schedule.algorithm}] in {schedule.rounds} LOCAL rounds")
    bound = default_fix_radius(graph.n, delta)
    rng = random.Random(42)
    print(f"Theorem 5 bound: repairs reach at most radius {bound}\n")
    print(f"{'node':>6} {'stuck?':>7} {'mode':>16} {'radius':>7} "
          f"{'recolored':>10} {'rounds':>7}")
    repairs = 0
    while repairs < 10:
        v = rng.randrange(graph.n)
        colors = scramble_without(graph, v, delta, rng)
        if colors is None:
            continue
        # "Stuck" = the rejoining node sees all Δ slots around it — the
        # interesting case Theorem 5 exists for.  Prefer showing those.
        stuck = len({colors[u] for u in graph.adj[v]}) == delta
        if not stuck and repairs >= 3:
            continue  # keep a few easy rows, then hunt for hard ones
        result = fix_uncolored_node(graph, colors, v, delta)
        validate_coloring(graph, colors, max_colors=delta)
        print(f"{v:>6} {'yes' if stuck else 'no':>7} {result.mode:>16} "
              f"{result.radius:>7} {len(result.recolored):>10} {result.rounds:>7}")
        assert result.radius <= bound
        repairs += 1
    print("\nall repairs valid and within the Theorem 5 radius bound;")
    print("a full recompute would have touched all 1000 nodes each time.")


if __name__ == "__main__":
    main()
