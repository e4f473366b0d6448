"""E5 — Theorem 5 (distributed Brooks): repair locality.

Paper claim: a single uncolored node can always be completed by changing
colors only within its (2·log_{Δ-1} n)-neighbourhood.

Workload: color G−v from scratch (the genuine Theorem 5 precondition —
uncoloring a properly colored node would trivially leave its old color
free), then repair v and measure the radius of the recolored region and
the number of recolored nodes, against the 2·log_{Δ-1} n bound.

Facade-native since PR 3: the G−v base coloring goes through
:func:`repro.api.solve` with the ``components`` dispatcher (which colors
every component of the punctured graph with its own optimum — ≤ Δ colors
whenever G was connected) instead of a hand-rolled per-component
``degree_list_color`` loop.  The repair itself stays on
:func:`repro.core.brooks.fix_uncolored_node`: single-node repair is the
primitive under measurement and deliberately has no facade wrapper.
"""

from __future__ import annotations

import random

from common import emit, sizes
from repro.analysis.experiments import sweep
from repro.api import SolverConfig, solve
from repro.core.brooks import default_fix_radius, fix_uncolored_node
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import UNCOLORED, validate_coloring


def _color_minus_v(graph, v, delta, rng):
    """A proper ≤Δ-coloring of G−v (None when one doesn't exist, e.g. a
    Δ-regular clique component in a disconnected instance).

    The ``components`` dispatcher colors every graph (per-component
    optimum), so engine errors are *not* swallowed here — a raise means a
    genuine regression and should crash the bench; only a palette that
    exceeds Δ is the legitimate "no Δ-coloring of G−v exists" outcome.
    """
    colors = [UNCOLORED] * graph.n
    rest = [u for u in range(graph.n) if u != v]
    sub, originals = graph.subgraph(rest)
    result = solve(
        sub,
        SolverConfig(
            algorithm="components", seed=rng.randrange(2**31), validate=True
        ),
    )
    if result.palette > delta or max(result.colors, default=0) > delta:
        return None
    for i, u in enumerate(originals):
        colors[u] = result.colors[i]
    for _ in range(4 * graph.n):
        u = rng.randrange(graph.n)
        if u == v:
            continue
        used = {colors[w] for w in graph.adj[u] if w != v and colors[w] != UNCOLORED}
        options = [c for c in range(1, delta + 1) if c not in used and c != colors[u]]
        if options:
            colors[u] = rng.choice(options)
    return colors


def build_table():
    ns = sizes([256, 1024, 4096], [256, 1024, 4096, 16384])
    deltas = [3, 4]
    repairs_per_point = 6

    def run(point, seed):
        n, delta = point["n"], point["delta"]
        graph = random_regular_graph(n, delta, seed=seed)
        rng = random.Random(seed * 31 + 7)
        radii, recolored, rounds, dcc_mode = [], [], [], 0
        done = 0
        while done < repairs_per_point:
            v = rng.randrange(n)
            colors = _color_minus_v(graph, v, delta, rng)
            if colors is None:
                continue
            result = fix_uncolored_node(graph, colors, v, delta)
            validate_coloring(graph, colors, max_colors=delta)
            radii.append(result.radius)
            recolored.append(len(result.recolored))
            rounds.append(result.rounds)
            dcc_mode += result.mode == "dcc"
            done += 1
        return {
            "max_radius": max(radii),
            "mean_recolored": sum(recolored) / len(recolored),
            "max_rounds": max(rounds),
            "dcc_repairs": dcc_mode,
            "bound_2log": default_fix_radius(n, delta),
        }

    points = [{"delta": d, "n": n} for d in deltas for n in ns]
    table = sweep("E5: Brooks repair locality (Thm 5)", points, run, seeds=(0, 1))
    table.notes.append(
        "claim: max_radius <= bound_2log = 2·log_{Δ-1} n + O(1) on every row"
    )
    table.notes.append(
        "G−v base colorings via repro.api.solve(algorithm='components')"
    )
    return table


def test_e5_brooks(benchmark):
    table = benchmark.pedantic(build_table, iterations=1, rounds=1)
    emit(table, "e5_brooks")
    for row in table.rows:
        assert row.values["max_radius"] <= row.values["bound_2log"]


if __name__ == "__main__":
    emit(build_table(), "e5_brooks")
