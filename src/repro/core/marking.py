"""The marking process (Section 2.2; phase (4) of the randomized algorithm).

Each node of the remainder graph H selects itself independently with
probability p.  A selected node that sees another selected node within the
*backoff distance* b unselects itself; every surviving selected node picks
two random non-adjacent H-neighbours and colors them with color one — the
survivor becomes a **T-node** (a node with two equally-colored neighbours,
which is guaranteed a free color whenever it is colored last among its
neighbours), the two neighbours are **marked**.

The paper's parameters (b = 6 for Δ >= 4, b = 12 for Δ = 3; p = Δ^{-b})
make the w.h.p. statements of Lemmas 23/31 true asymptotically but select
essentially zero nodes at any feasible n; :func:`default_selection_probability`
provides the practical preset: p ≈ 1.3 /
E[|B_b(v)|], which maximises the survivor density of the backoff process.

Backoff >= 5 is enforced: it guarantees marked nodes of distinct survivors
are never adjacent (survivors are > b apart, marks hang one hop off their
survivor), which both keeps the color-1 partial coloring proper and rules
out the pathological leftover components discussed in
``repro.core.small_components``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import AlgorithmContractError
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger

__all__ = ["MarkingOutcome", "marking_process", "default_selection_probability"]

MARK_COLOR = 1


@dataclass
class MarkingOutcome:
    """Result of the marking process.

    ``t_nodes`` maps each surviving selected node to its two marked
    neighbours; ``marked`` is the set of marked nodes (colored 1);
    ``initially_selected`` / ``backed_off`` are counters for experiment E7.
    """

    t_nodes: dict[int, tuple[int, int]] = field(default_factory=dict)
    marked: set[int] = field(default_factory=set)
    initially_selected: int = 0
    backed_off: int = 0
    no_pair_available: int = 0
    rounds: int = 0


def default_selection_probability(delta: int, backoff: int) -> float:
    """Practical selection probability ≈ 1.3 / E[ball size at the backoff
    radius] — the maximiser of p·(1-p)^{|B_b|} for the survival process."""
    ball = 1 + delta * sum((max(1, delta - 1)) ** i for i in range(backoff))
    return min(0.25, 1.3 / ball)


def marking_process(
    graph: Graph,
    h_nodes: set[int],
    colors: list[int],
    p: float,
    backoff: int,
    rng: random.Random | None = None,
    ledger: RoundLedger | None = None,
) -> MarkingOutcome:
    """Run the marking process on the remainder graph H (phase (4)).

    Precondition: every node of ``h_nodes`` is uncolored.  Mutates
    ``colors`` (marked nodes receive color 1).  Charges ``backoff + 2``
    rounds: the backoff conflict flood plus the pick/mark exchange.
    """
    rng = rng if rng is not None else random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    if backoff < 5:
        raise AlgorithmContractError(
            f"backoff must be >= 5 to keep marks of distinct T-nodes "
            f"non-adjacent (got {backoff})"
        )
    for v in h_nodes:
        if colors[v] != UNCOLORED:
            raise AlgorithmContractError(f"marking precondition: node {v} is colored")
    outcome = MarkingOutcome()
    ledger.charge(backoff + 2)
    outcome.rounds = backoff + 2

    h_mask = bytearray(graph.n)
    for v in h_nodes:
        h_mask[v] = 1
    selected = {v for v in h_nodes if rng.random() < p}
    outcome.initially_selected = len(selected)
    survivors = _without_close_pairs(graph, selected, backoff, h_mask)
    outcome.backed_off = len(selected) - len(survivors)
    if not survivors:
        return outcome  # nothing to mark; skip building the adjacency sets

    adj = graph.adj
    adj_sets = graph.adjacency_sets()
    for v in sorted(survivors):
        neighbors = [u for u in adj[v] if h_mask[u]]
        pair = _random_non_adjacent_pair(neighbors, adj_sets, rng)
        if pair is None:
            outcome.no_pair_available += 1
            continue
        u1, u2 = pair
        colors[u1] = MARK_COLOR
        colors[u2] = MARK_COLOR
        outcome.t_nodes[v] = (u1, u2)
        outcome.marked.add(u1)
        outcome.marked.add(u2)
    return outcome


def _without_close_pairs(
    graph: Graph, selected: set[int], backoff: int, allowed: bytearray
) -> set[int]:
    """Selected nodes with no other selected node within ``backoff`` hops
    (distance measured inside H): the mutual-unselection rule.

    Implemented as ``backoff`` rounds of best-two-labels propagation: every
    node tracks the two closest selected nodes with *distinct* identities;
    a selected node survives iff its second-closest selected node (the
    closest one is itself, at distance 0) is farther than ``backoff``.
    ``allowed`` is a byte mask of the remainder graph H (mask probes are
    the inner-loop operation of the flood).
    """
    if not selected:
        return set()
    adj = graph.adj
    # labels[v] = up to two (dist, source) pairs with distinct sources.
    labels: dict[int, list[tuple[int, int]]] = {v: [(0, v)] for v in selected}
    for _ in range(backoff):
        updates: dict[int, list[tuple[int, int]]] = {}
        for v, pairs in labels.items():
            for u in adj[v]:
                if not allowed[u]:
                    continue
                incoming = [(d + 1, s) for d, s in pairs]
                if incoming:
                    updates.setdefault(u, []).extend(incoming)
        for u, incoming in updates.items():
            merged = labels.get(u, []) + incoming
            best: dict[int, int] = {}
            for d, s in merged:
                if s not in best or d < best[s]:
                    best[s] = d
            top_two = sorted(((d, s) for s, d in best.items()))[:2]
            labels[u] = top_two
    survivors = set()
    for v in selected:
        others = [d for d, s in labels.get(v, []) if s != v]
        if not others or min(others) > backoff:
            survivors.add(v)
    return survivors


def _random_non_adjacent_pair(
    neighbors: list[int], adj_sets: list[set[int]], rng: random.Random
) -> tuple[int, int] | None:
    """A uniformly random non-adjacent pair among ``neighbors`` (or None if
    the neighbourhood is a clique — then the node cannot become a T-node,
    cf. Lemma 13: clique neighbourhoods occur exactly where the graph is
    locally DCC-free)."""
    pairs = [
        (a, b)
        for i, a in enumerate(neighbors)
        for b in neighbors[i + 1:]
        if b not in adj_sets[a]
    ]
    if not pairs:
        return None
    return pairs[rng.randrange(len(pairs))]
