"""Round-complexity assertions: ledger totals stay within documented bounds.

Engine refactors (CSR adjacency, native kernels) must not change *what
is charged* to the :class:`RoundLedger`.  These tests pin the exact coupling
between iterations and charged rounds for the primitives whose cost the
paper reasons about, and bound the iteration counts on paths and cycles —
the instances with known behaviour:

* Linial color reduction: exactly one round per reduction step, fixed
  point after ``len(reduction_schedule(n, Δ))`` steps (the O(log* n)
  quantity; ≤ 2 for Δ = 2 up to n = 32768), palette ≤ (2Δ+O(1))².
* The marking process: exactly ``backoff + 2`` rounds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.marking import marking_process
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring, reduction_schedule

PATHS_AND_CYCLES = [
    ("path", path_graph, 64),
    ("path", path_graph, 512),
    ("path", path_graph, 4096),
    ("cycle", cycle_graph, 64),
    ("cycle", cycle_graph, 512),
    ("cycle", cycle_graph, 4096),
]
IDS = [f"{kind}-{n}" for kind, _, n in PATHS_AND_CYCLES]


@pytest.mark.parametrize("kind,maker,n", PATHS_AND_CYCLES, ids=IDS)
def test_linial_rounds_match_schedule(kind, maker, n):
    graph = maker(n)
    ledger = RoundLedger()
    result = linial_coloring(graph, ledger)
    schedule = reduction_schedule(n, 2)
    assert result.iterations == len(schedule)
    assert ledger.total_rounds == result.iterations, (
        "Linial charged rounds beyond its reduction steps"
    )
    # log*-shaped: two steps suffice from n <= 32768 down to the fixed point.
    assert result.iterations <= 2
    # Fixed point is O(Δ²): for Δ = 2 the smallest usable prime is 5 -> 25.
    assert result.palette <= 49
    assert len(set(result.colors)) <= result.palette


@pytest.mark.parametrize("backoff", [5, 6, 8])
def test_marking_charges_backoff_plus_two(backoff):
    graph = cycle_graph(200)
    ledger = RoundLedger()
    colors = [UNCOLORED] * graph.n
    outcome = marking_process(
        graph, set(range(graph.n)), colors, 0.01, backoff,
        random.Random(0), ledger,
    )
    assert ledger.total_rounds == backoff + 2
