"""The update ladder's one record of rounds.

Every op's ``rounds`` and ``rung_wall_s`` are read off its ledger, one
phase per rung the op climbed (``greedy``, ``token-walk``, ``resolve``):
a conflict-free op climbs none and builds no ledger, a greedy repair
costs one round, a Theorem 5 token walk costs its
:class:`repro.core.brooks.BrooksFixResult` ``rounds`` and a re-solve
costs the fresh solve's ``rounds``.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.analysis.harness import carve_matching
from repro.api import SolverConfig, solve
from repro.core import incremental
from repro.core.incremental import IncrementalColoring
from repro.graphs.generators import random_regular_graph


def _engine(n: int, delta: int, seed: int, carved: int) -> IncrementalColoring:
    """A Δ-regular graph minus a ``carved``-edge matching, solved."""
    full = random_regular_graph(n, delta, seed=seed)
    base = full.apply_updates(removed=carve_matching(full, carved))
    return IncrementalColoring.from_result(base, solve(base, seed=seed), validate=True)


def _slack_pair(engine: IncrementalColoring, same_color: bool):
    """Two non-adjacent nodes below Δ whose colors match (or differ)."""
    graph, colors = engine.graph, engine.colors
    slack = [v for v in range(graph.n) if graph.degree(v) < engine.delta]
    return next(
        (
            (u, v)
            for u, v in combinations(slack, 2)
            if (colors[u] == colors[v]) == same_color and not graph.has_edge(u, v)
        ),
        None,
    )


@pytest.fixture
def walks(monkeypatch):
    """Every token walk the ladder runs, in order."""
    seen = []
    real = incremental.fix_uncolored_node

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr(incremental, "fix_uncolored_node", spy)
    return seen


def test_conflict_free_ops_charge_nothing():
    engine = _engine(256, 4, 1, 40)
    u, v = _slack_pair(engine, same_color=False)
    for outcome in (engine.insert_edge(u, v), engine.delete_edge(u, v)):
        assert outcome.conflicts == 0
        assert outcome.ledger is None
        assert outcome.rounds == 0
        assert outcome.rung_wall_s == {}
        assert outcome.as_dict()["rung_wall_s"] == {}


@pytest.mark.parametrize("delta,seed", [(3, 2), (4, 1), (5, 3)])
def test_repair_rungs_are_ledger_phases(delta, seed, walks):
    """Conflicting single-edge inserts until none is left: a greedy-only
    op books ``greedy`` alone at one round per repair; an op that reaches
    the token walk books ``token-walk`` (after its failed greedy attempt)
    and the walks' rounds on top of the greedy repairs."""
    engine = _engine(512, delta, seed, 120)
    climbed = set()
    while (pair := _slack_pair(engine, same_color=True)) is not None:
        walks.clear()
        outcome = engine.insert_edge(*pair)
        assert outcome.conflicts == 1 and not outcome.full_resolve
        greedy = outcome.repair_modes.get("greedy", 0)
        rungs = set(outcome.rung_wall_s)
        if walks:
            assert rungs == {"greedy", "token-walk"}
            climbed.add("token-walk")
        else:
            assert rungs == {"greedy"} and greedy == 1
            climbed.add("greedy")
        assert outcome.rounds == greedy + sum(walk.rounds for walk in walks)
        assert outcome.rounds == outcome.ledger.total_rounds
        assert all(wall >= 0 for wall in outcome.rung_wall_s.values())
    assert climbed == {"greedy", "token-walk"}
    assert engine.totals["full_resolves"] == 0


def test_delta_raising_insert_books_the_resolve_rung():
    engine = _engine(256, 4, 11, 40)
    graph = engine.graph
    full = [v for v in range(graph.n) if graph.degree(v) == engine.delta]
    u, v = next(pair for pair in combinations(full, 2) if not graph.has_edge(*pair))
    outcome = engine.insert_edge(u, v)
    assert outcome.full_resolve
    assert set(outcome.rung_wall_s) == {"resolve"}
    resolved = solve(engine.graph, SolverConfig(algorithm="auto", seed=engine.seed))
    assert outcome.rounds == resolved.rounds > 0
