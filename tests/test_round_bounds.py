"""Round-complexity assertions: ledger totals stay within documented bounds.

The engine refactors (precomputed active-neighbour arrays in
``SyncNetwork``, CSR adjacency everywhere) must not change *what is
charged* to the :class:`RoundLedger`.  These tests pin the exact coupling
between iterations and charged rounds for the primitives whose cost the
paper reasons about, and bound the iteration counts on paths and cycles —
the instances with known behaviour:

* Linial color reduction: exactly one round per reduction step, fixed
  point after ``len(reduction_schedule(n, Δ))`` steps (the O(log* n)
  quantity; ≤ 2 for Δ = 2 up to n = 32768), palette ≤ (2Δ+O(1))².
* The marking process: exactly ``backoff + 2`` rounds.
* The faithful message-passing engine charges exactly one round per
  executed synchronous round (LubyProgram: 2 per MIS iteration, within
  2·log₂(n) + 2 iterations on paths and cycles).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.marking import marking_process
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.network import SyncNetwork
from repro.local.rounds import RoundLedger
from repro.primitives.linial import linial_coloring, reduction_schedule
from repro.primitives.programs import LubyProgram

PATHS_AND_CYCLES = [
    ("path", path_graph, 64),
    ("path", path_graph, 512),
    ("path", path_graph, 4096),
    ("cycle", cycle_graph, 64),
    ("cycle", cycle_graph, 512),
    ("cycle", cycle_graph, 4096),
]
IDS = [f"{kind}-{n}" for kind, _, n in PATHS_AND_CYCLES]


def _assert_mis(graph: Graph, in_set: set[int]) -> None:
    adj = graph.adj
    for v in in_set:
        assert not any(u in in_set for u in adj[v]), "not independent"
    for v in range(graph.n):
        assert v in in_set or any(u in in_set for u in adj[v]), "not maximal"


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


@pytest.mark.parametrize("kind,maker,n", [("path", path_graph, 256), ("cycle", cycle_graph, 256)], ids=["path-256", "cycle-256"])
def test_engine_luby_round_accounting(kind, maker, n):
    """The SyncNetwork engine charges exactly one round per executed round;
    LubyProgram needs 2 per MIS iteration, so the ledger total is even and
    within the documented iteration bound."""
    graph = maker(n)
    ledger = RoundLedger()
    network = SyncNetwork(graph, ledger)
    contexts = network.run(LubyProgram(seed=3))
    in_set = LubyProgram.extract(contexts)
    _assert_mis(graph, in_set)
    assert ledger.total_rounds % 2 == 0
    assert ledger.total_rounds <= 2 * (2 * math.log2(n) + 2), (
        "engine executed more rounds than the Luby bound allows "
        "(did SyncNetwork start charging setup work?)"
    )


def test_engine_active_subset_round_accounting():
    """Restricting to an active subset must not change what a run charges:
    inactive nodes are silent, and the induced path still completes within
    the Luby bound."""
    graph = cycle_graph(128)
    active = set(range(0, 96))  # an induced path of 96 nodes
    ledger = RoundLedger()
    network = SyncNetwork(graph, ledger, active=active)
    contexts = network.run(LubyProgram(seed=0))
    assert set(contexts) == active
    in_set = LubyProgram.extract(contexts)
    adj = graph.adj
    for v in active:
        neighbors_in = [u for u in adj[v] if u in active]
        if v in in_set:
            assert not any(u in in_set for u in neighbors_in)
        else:
            assert any(u in in_set for u in neighbors_in)
    assert ledger.total_rounds % 2 == 0
    assert ledger.total_rounds <= 2 * (2 * math.log2(96) + 2)
