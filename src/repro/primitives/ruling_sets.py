"""Ruling sets (Lemma 20): the paper's base-layer selection machinery.

An (α, β)-ruling set of a node set W in G is M ⊆ W with every two nodes of
M at distance >= α and every node of W within distance β of M.  The paper
uses four variants (Lemma 20); this module provides the engines we
substitute for them, each with the variant it stands in for:

* :func:`ruling_forest_aglp` — deterministic (k, (k-1)·⌈log₂ n⌉) ruling set
  in (k-1)·⌈log₂ n⌉ rounds by the classic Awerbuch–Goldberg–Luby–Plotkin
  bit recursion over identifiers (substitute for Lemma 20(2) [SEW13]).
* :func:`ruling_set_random` — randomized (k+1, k)-ruling set via MIS of the
  power graph G^k (Luby or Ghaffari engine; substitute for Lemma 20(3)/(4)).
* :func:`ruling_set_from_coloring` — deterministic (2, 1) ruling set (an
  MIS) in ``palette`` rounds from a base coloring (substitute for
  Lemma 20(1) on bounded-degree graphs).

All results are checked by :func:`verify_ruling_set` in tests and strict
mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger
from repro.primitives.mis import greedy_mis_from_coloring, power_graph_mis

__all__ = [
    "RulingSetResult",
    "ruling_forest_aglp",
    "ruling_set_random",
    "ruling_set_from_coloring",
    "verify_ruling_set",
]


@dataclass
class RulingSetResult:
    """A ruling set together with its guaranteed parameters.

    ``alpha``/``beta`` are the *guaranteed* independence/domination bounds;
    the measured values (often better) are what experiment E8 tabulates.
    """

    nodes: set[int]
    alpha: int
    beta: int


def ruling_forest_aglp(
    graph: Graph,
    k: int,
    ledger: RoundLedger | None = None,
    members: set[int] | None = None,
) -> RulingSetResult:
    """Deterministic (k, (k-1)·⌈log₂ n⌉) ruling set by AGLP bit recursion.

    Recursion on identifier bits: split the member set by the current bit,
    compute ruling sets of both halves in parallel, then keep from the
    1-half only nodes at distance >= k (in G) from the 0-half's set.
    Each merge level costs k-1 rounds (a depth-(k-1) BFS flood from the
    0-half ruling set); sibling merges at the same level run concurrently
    in LOCAL, so the total is (k-1)·⌈log₂ n⌉ rounds.

    Distances are measured in G (floods may relay through non-member
    nodes), which matches the paper's usage: the ruling *forest* of
    Theorem 4 spans the whole graph, and the ruling sets of virtual graphs
    (G_DCC) measure distance through the underlying network.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    member_set = set(range(graph.n)) if members is None else set(members)
    if not member_set:
        return RulingSetResult(nodes=set(), alpha=k, beta=0)
    bits = max(1, (max(member_set)).bit_length())
    merge_rounds_per_level = max(0, k - 1)
    ledger.charge(merge_rounds_per_level * bits)

    def recurse(nodes: list[int], bit: int) -> set[int]:
        if len(nodes) <= 1:
            return set(nodes)
        if bit < 0:
            # Identifiers are unique, so this is unreachable for bit >= 0
            # recursion from the full id width; guard anyway.
            return {min(nodes)}
        zeros = [v for v in nodes if not (v >> bit) & 1]
        ones = [v for v in nodes if (v >> bit) & 1]
        r_zero = recurse(zeros, bit - 1)
        r_one = recurse(ones, bit - 1)
        if not r_zero:
            return r_one
        if not r_one:
            return r_zero
        dist = bfs_distances(graph, r_zero, max_depth=k - 1)
        kept = {v for v in r_one if dist[v] == -1}
        return r_zero | kept

    nodes = recurse(sorted(member_set), bits - 1)
    beta = merge_rounds_per_level * bits
    return RulingSetResult(nodes=nodes, alpha=k, beta=beta)


def ruling_set_random(
    graph: Graph,
    k: int,
    ledger: RoundLedger | None = None,
    rng: random.Random | None = None,
    members: set[int] | None = None,
    method: str = "luby",
    max_iterations: int | None = None,
) -> RulingSetResult:
    """Randomized (k+1, k)-ruling set: MIS of G^k on the member set.

    ``method='ghaffari'`` gives the O(log Δ)-type per-node convergence of
    Lemma 20(4); stragglers past ``max_iterations`` are resolved by a
    greedy pass (distance-k dominating completion), whose extra rounds are
    charged as a depth-k flood per straggler batch — the deterministic
    fallback mirroring the paper's shattering finisher.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    member_set = set(range(graph.n)) if members is None else set(members)
    result = power_graph_mis(
        graph, k, ledger, rng, active=member_set, max_iterations=max_iterations, method=method
    )
    nodes = set(result.in_set)
    if result.undecided:
        # Deterministic finisher: repeatedly admit the smallest-id
        # undecided node and knock out its distance-k ball.  Sequential in
        # the worst case; in practice undecided sets are tiny (shattering).
        remaining = set(result.undecided)
        while remaining:
            ledger.charge(k)
            v = min(remaining)
            nodes.add(v)
            dist = bfs_distances(graph, [v], max_depth=k)
            remaining = {u for u in remaining if dist[u] == -1}
    return RulingSetResult(nodes=nodes, alpha=k + 1, beta=k)


def ruling_set_from_coloring(
    graph: Graph,
    base_colors: list[int],
    palette: int,
    ledger: RoundLedger | None = None,
    members: set[int] | None = None,
) -> RulingSetResult:
    """Deterministic (2, 1)-ruling set (an MIS) in ``palette`` rounds.

    Substitute for Lemma 20(1): given the Linial coloring, iterate color
    classes.  A (2, β) guarantee with β=1 is stronger domination than the
    lemma needs, at the price of palette = O(Δ²) rounds instead of
    O(β·Δ^{2/β} + log* n).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    result = greedy_mis_from_coloring(graph, base_colors, palette, ledger, active=members)
    return RulingSetResult(nodes=result.in_set, alpha=2, beta=1)


def verify_ruling_set(
    graph: Graph,
    ruling: set[int],
    alpha: int,
    beta: int,
    members: set[int] | None = None,
) -> tuple[bool, str]:
    """Check the (α, β) guarantees; returns ``(ok, reason)``.

    Independence: every pair of ruling nodes at distance >= α (checked via
    a depth-(α-1) BFS from each ruling node).  Domination: every member
    within β of the ruling set.
    """
    member_set = set(range(graph.n)) if members is None else set(members)
    if not member_set:
        return (len(ruling) == 0, "empty member set")
    if not ruling:
        return (False, "empty ruling set for non-empty members")
    if not ruling <= member_set:
        return (False, "ruling set contains non-members")
    for v in ruling:
        dist = bfs_distances(graph, [v], max_depth=alpha - 1)
        for u in ruling:
            if u != v and dist[u] != -1:
                return (False, f"ruling nodes {v},{u} at distance {dist[u]} < {alpha}")
    dist = bfs_distances(graph, ruling, max_depth=beta)
    for v in member_set:
        if dist[v] == -1:
            return (False, f"member {v} farther than beta={beta} from ruling set")
    return (True, "ok")
