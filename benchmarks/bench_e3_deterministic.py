"""E3 — Theorem 4: deterministic Δ-coloring.

Paper claim: O(√Δ · log^{-3/2}Δ · log² n) rounds.  With the documented
substitutions (AGLP ruling forest for SEW13, color-class list engine for
FHK16) the implemented shape is O(Δ² · log² n / log² Δ): the log² n factor
— the paper's headline n-dependence — is preserved (layer count O(R·log n)
times an n-independent per-layer cost), the Δ-polynomial is coarser.

The table reports measured rounds against a fitted c·log² n / log² Δ and
the measured log-log slope in n (predicted ≈ 2... minus the log Δ
corrections; the layer count saturates once R·log n reaches the graph's
diameter, which pulls small-n slopes down).
"""

from __future__ import annotations

import math

from common import emit, sizes
from repro.analysis.experiments import sweep
from repro.analysis.stats import fit_against, loglog_slope
from repro.api import solve
from repro.graphs.generators import random_regular_graph


def build_table():
    ns = sizes([512, 2048, 8192], [512, 2048, 8192, 32768])
    deltas = sizes([3, 5], [3, 5, 8])

    def run(point, seed):
        graph = random_regular_graph(point["n"], point["delta"], seed=seed)
        result = solve(graph, algorithm="deterministic")
        assert result.palette == point["delta"]
        return {
            "rounds": result.rounds,
            "layers": result.stats["num_layers"],
            "b0": result.stats["b0_size"],
        }

    points = [{"delta": d, "n": n} for d in deltas for n in ns]
    table = sweep("E3: deterministic Δ-coloring, rounds vs n", points, run, seeds=(0,))

    for d in deltas:
        rows = [row for row in table.rows if row.params["delta"] == d]
        xs = [row.params["n"] for row in rows]
        ys = [row.values["rounds"] for row in rows]
        def shape(n):
            return math.log2(n) ** 2

        c_fit = fit_against(xs, ys, shape)
        for row in rows:
            row.values["pred_c*log^2 n"] = round(c_fit * shape(row.params["n"]), 0)
        table.notes.append(
            f"Δ={d}: measured log-log slope = {loglog_slope(xs, ys):.2f} "
            "(upper bound log² n; measured ~Δ²·log n because R = 4·log_{Δ-1} n "
            "exceeds the diameter of random regular graphs, so B0 is a single "
            "root and the layer count equals the diameter ≈ log n)"
        )
    table.notes.append(
        "substitutions (repro.core.deterministic): per-layer cost O(Δ²) instead of "
        "O(√Δ·polylog Δ); layer count O(R log n) instead of O(R²)"
    )
    return table


def test_e3_deterministic(benchmark):
    table = benchmark.pedantic(build_table, iterations=1, rounds=1)
    emit(table, "e3_deterministic")
    assert table.rows


if __name__ == "__main__":
    emit(build_table(), "e3_deterministic")
