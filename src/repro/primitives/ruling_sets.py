"""Ruling sets (Lemma 20): the paper's base-layer selection machinery.

An (α, β)-ruling set of a node set W in G is M ⊆ W with every two nodes of
M at distance >= α and every node of W within distance β of M.

* :func:`ruling_forest_aglp` — deterministic (k, (k-1)·⌈log₂ n⌉) ruling set
  in (k-1)·⌈log₂ n⌉ rounds by the classic Awerbuch–Goldberg–Luby–Plotkin
  bit recursion over identifiers (substitute for Lemma 20(2) [SEW13]); the
  ruling forest of Theorem 4.
* :func:`verify_ruling_set` — checks the (α, β) guarantees.

The randomized engines' ruling set of the DCC virtual graph (phase 2) is
:func:`repro.core.dcc.virtual_graph_ruling_set`.  Both functions here
raise ``IndexError`` for a member outside ``0..n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger

__all__ = [
    "RulingSetResult",
    "ruling_forest_aglp",
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


def _member_set(graph: Graph, members: set[int] | None) -> set[int]:
    """``members`` as a set (every node when ``None``); ``IndexError`` for
    a member outside ``0..n-1`` (a negative id must not alias ``n + id``)."""
    if members is None:
        return set(range(graph.n))
    member_set = set(members)
    bad = next((v for v in member_set if not 0 <= v < graph.n), None)
    if bad is not None:
        raise IndexError(f"member {bad} is not a node of this {graph.n}-node graph")
    return member_set


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
    member_set = _member_set(graph, members)
    ledger = ledger if ledger is not None else RoundLedger()
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
    member_set = _member_set(graph, members)
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
