"""E8 — Lemma 20: the ruling-set toolbox.

The paper's Lemma 20 collects four ruling-set constructions.  This bench
measures the engines this reproduction substitutes for them (listed in
:mod:`repro.primitives.ruling_sets`) on a common workload: rounds charged, ruling-set size, and the
*measured* domination radius β (often far better than the guarantee).
Also includes the MPX clustering used by the Lemma 24 substitute, and —
since PR 3 — the ruling forest as it actually runs *inside* the
deterministic pipeline, observed through :func:`repro.api.solve`'s phase
ledger rather than by re-driving the primitive (the engines themselves
are the measured subjects and stay primitive-level by design).
"""

from __future__ import annotations

import random

import common
from common import emit
from repro.analysis.experiments import Row, Table
from repro.api import SolverConfig, solve
from repro.graphs.bfs import bfs_distances
from repro.graphs.generators import random_regular_graph
from repro.local.rounds import RoundLedger
from repro.primitives.decomposition import mpx_clustering
from repro.primitives.linial import linial_coloring
from repro.primitives.ruling_sets import (
    ruling_forest_aglp,
    ruling_set_from_coloring,
    ruling_set_random,
)


def _measured_beta(graph, ruling):
    dist = bfs_distances(graph, ruling)
    return max(dist)


def build_table():
    n = 1024 if common.SMOKE else 4096
    graph = random_regular_graph(n, 4, seed=1)
    linial = linial_coloring(graph)
    table = Table(title=f"E8: ruling-set engines (Lemma 20 substitutes), n={n}, Δ=4")

    # (2,1): deterministic MIS by color classes  [Lemma 20(1) substitute]
    ledger = RoundLedger()
    result = ruling_set_from_coloring(graph, linial.colors, linial.palette, ledger)
    table.rows.append(Row(
        params={"engine": "color-class MIS (L20.1)", "alpha": 2},
        values={"rounds": ledger.total_rounds, "size": len(result.nodes),
                "beta_measured": _measured_beta(graph, result.nodes),
                "beta_guarantee": 1},
    ))

    # (k, (k-1)·log n): deterministic AGLP  [Lemma 20(2) substitute]
    for k in (3, 6):
        ledger = RoundLedger()
        result = ruling_forest_aglp(graph, k, ledger)
        table.rows.append(Row(
            params={"engine": f"AGLP forest k={k} (L20.2)", "alpha": k},
            values={"rounds": ledger.total_rounds, "size": len(result.nodes),
                    "beta_measured": _measured_beta(graph, result.nodes),
                    "beta_guarantee": result.beta},
        ))

    # (k+1, k): randomized power-graph Luby  [Lemma 20(3) substitute]
    for k in (2, 3):
        ledger = RoundLedger()
        result = ruling_set_random(graph, k, ledger, random.Random(2))
        table.rows.append(Row(
            params={"engine": f"power-Luby k={k} (L20.3)", "alpha": k + 1},
            values={"rounds": ledger.total_rounds, "size": len(result.nodes),
                    "beta_measured": _measured_beta(graph, result.nodes),
                    "beta_guarantee": k},
        ))

    # (k+1, k): Ghaffari desire levels, capped + finisher  [Lemma 20(4)]
    ledger = RoundLedger()
    result = ruling_set_random(
        graph, 2, ledger, random.Random(3), method="ghaffari", max_iterations=10
    )
    table.rows.append(Row(
        params={"engine": "power-Ghaffari k=2 (L20.4)", "alpha": 3},
        values={"rounds": ledger.total_rounds, "size": len(result.nodes),
                "beta_measured": _measured_beta(graph, result.nodes),
                "beta_guarantee": 2},
    ))

    # The same engine in production position: the deterministic pipeline's
    # ruling forest, read from the facade's phase ledger (rounds charged in
    # situ; β is the certified ruling_distance — the per-node sets stay
    # inside the engine).
    result = solve(graph, SolverConfig(algorithm="deterministic", validate=False))
    ruling = result.phase_stats["1:ruling-forest"]
    table.rows.append(Row(
        params={"engine": "in-pipeline forest (solve)", "alpha": ruling["ruling_distance"]},
        values={"rounds": result.phase_rounds["1:ruling-forest"],
                "size": ruling["b0_size"],
                "beta_measured": ruling["ruling_distance"],
                "beta_guarantee": ruling["ruling_distance"]},
    ))

    # MPX clustering (Lemma 24 (P3)/(P4) substitute)
    clustering = mpx_clustering(graph, set(range(graph.n)), beta=0.5, rng=random.Random(4))
    table.rows.append(Row(
        params={"engine": "MPX clustering β=0.5 (L24)", "alpha": 1},
        values={"rounds": clustering.max_radius, "size": len(clustering.centers),
                "beta_measured": clustering.max_radius,
                "beta_guarantee": clustering.max_radius},
    ))
    table.notes.append("pass criterion: beta_measured <= beta_guarantee for ruling sets")
    table.notes.append(
        "in-pipeline row: β is the certified guarantee (the facade exposes "
        "phase stats, not the ruling set itself)"
    )
    return table


def test_e8_ruling_sets(benchmark):
    table = benchmark.pedantic(build_table, iterations=1, rounds=1)
    emit(table, "e8_ruling_sets")
    for row in table.rows:
        assert row.values["beta_measured"] <= row.values["beta_guarantee"]


if __name__ == "__main__":
    emit(build_table(), "e8_ruling_sets")
