"""The marking process (Section 2.2; phase (4) of the randomized algorithm).

Each node of the remainder graph H selects itself independently with
probability p.  A selected node that sees another selected node within the
*backoff distance* b (distance inside H) unselects itself; every surviving
selected node picks two random non-adjacent H-neighbours and colors them
with color one — the survivor becomes a **T-node** (a node with two
equally-colored neighbours, which is guaranteed a free color whenever it
is colored last among its neighbours), the two neighbours are **marked**.

Selection and backoff run in one call of the native kernel's
``marking_select`` when it is loaded, else in its Python twin
:func:`_select_python`; both give the same survivors from the same coins.
The coins are one ``rng.randbytes(8·|H|)`` block: H node i, in H's set
iteration order, draws from bytes 8i..8i+8 exactly the value
``rng.random()`` would have returned (:func:`_draws`), and the rng ends
in the state those ``|H|`` calls leave.  The backoff rule is a purely
local b-hop test, so it runs as one search per selected node: it stays
inside H, stops at depth b and exits at the first other selected node it
meets.  That is what a node learns from b rounds of flooding selection
flags, so the LOCAL charge stays ``backoff + 2`` (the flood plus the
pick/mark exchange); the selected nodes are few (p ≈ 1/|B_b|), so the
searches together visit about as many nodes as H has.  The pair pick for
the survivors stays in Python.

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

import ctypes
import random
import struct
from array import array
from dataclasses import dataclass, field

from repro import native
from repro.errors import AlgorithmContractError
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.native import address

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

    Precondition: every node of ``h_nodes`` lies in ``0..n-1``
    (``IndexError`` otherwise) and is uncolored.  Either failure is
    raised before any coin is drawn or color written.  Mutates ``colors``
    (marked nodes receive color 1).  Charges ``backoff + 2`` rounds: the
    backoff conflict flood plus the pick/mark exchange.
    """
    rng = rng if rng is not None else random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    if backoff < 5:
        raise AlgorithmContractError(
            f"backoff must be >= 5 to keep marks of distinct T-nodes "
            f"non-adjacent (got {backoff})"
        )
    survivors, selected = _select(graph, h_nodes, colors, p, backoff, rng)
    ledger.charge(backoff + 2)
    outcome = MarkingOutcome(initially_selected=selected, backed_off=selected - len(survivors))
    offsets, indices = graph.csr()
    for v in survivors:
        # A uniformly random non-adjacent pair of H-neighbours.  A clique
        # neighbourhood has none and its node cannot become a T-node
        # (cf. Lemma 13: that happens exactly where the graph is locally
        # DCC-free).
        pairs = graph.complement_within(
            [u for u in indices[offsets[v] : offsets[v + 1]] if u in h_nodes]
        )
        if not pairs:
            outcome.no_pair_available += 1
            continue
        u1, u2 = pairs[rng.randrange(len(pairs))]
        colors[u1] = MARK_COLOR
        colors[u2] = MARK_COLOR
        outcome.t_nodes[v] = (u1, u2)
        outcome.marked.add(u1)
        outcome.marked.add(u2)
    return outcome


def _select(
    graph: Graph, h_nodes: set[int], colors: list[int], p: float, backoff: int,
    rng: random.Random,
) -> tuple[list[int], int]:
    """The selected nodes that survive the backoff, ascending, and how
    many were selected: by the kernel's ``marking_select`` when it is
    loaded, else by :func:`_select_python`.  Anything the kernel refuses
    (a node outside ``0..n-1``, a colored H node) goes to the twin with
    the rng rewound, and the twin raises it."""
    kernel = native.kernel("marking_select")
    n = graph.n
    if kernel is None or not h_nodes or len(colors) != n:
        return _select_python(graph, h_nodes, colors, p, backoff, rng)
    count = len(h_nodes)
    try:
        nodes = struct.pack(f"{count}i", *h_nodes)
        # The kernel checks colors only when some node wears one.
        packed_colors = None if colors.count(UNCOLORED) == n else struct.pack(f"{n}i", *colors)
    except struct.error:  # a node or color beyond a C int: the twin takes it
        return _select_python(graph, h_nodes, colors, p, backoff, rng)
    offsets, indices = graph.csr()
    mask = array("B", bytes(n))
    queue = array("i", bytes(4 * count))
    out = array("i", bytes(4 * count))
    selected = ctypes.c_int()
    state = rng.getstate()
    block = rng.randbytes(8 * count)
    size = kernel(
        address(offsets), address(indices), n, packed_colors, nodes, count, block, p, backoff,
        address(mask), address(queue), address(out), ctypes.byref(selected),
    )
    if size < 0:
        rng.setstate(state)
        return _select_python(graph, h_nodes, colors, p, backoff, rng)
    return out[:size].tolist(), selected.value


def _select_python(
    graph: Graph, h_nodes: set[int], colors: list[int], p: float, backoff: int,
    rng: random.Random,
) -> tuple[list[int], int]:
    """Selection and backoff in Python (reference twin of the kernel's
    ``marking_select``): the same checks in the same order, the same
    block of coins, the same survivors."""
    n = graph.n
    for v in h_nodes:
        if not 0 <= v < n:
            raise IndexError(f"H node {v} is out of range for n={n}")
    for v in h_nodes:
        if colors[v] != UNCOLORED:
            raise AlgorithmContractError(f"marking precondition: node {v} is colored")
    if not h_nodes:
        return [], 0
    h_mask = bytearray(n)
    for v in h_nodes:
        h_mask[v] = 1
    draws = _draws(rng.randbytes(8 * len(h_nodes)))
    selected = {v for v, draw in zip(h_nodes, draws) if draw < p}
    return sorted(_without_close_pairs(graph, selected, backoff, h_mask)), len(selected)


def _draws(block: bytes) -> list[float]:
    """The ``random.random()`` values a block of ``rng.randbytes(8k)``
    holds, one per 8 bytes: from the two little-endian 32-bit words a, b
    there, ``((a >> 5)·2^26 + (b >> 6)) / 2^53``, which is how
    ``random()`` combines the same two generator outputs."""
    words = struct.unpack(f"<{len(block) // 4}I", block)
    return [
        ((a >> 5) * 67108864 + (b >> 6)) / 9007199254740992
        for a, b in zip(words[0::2], words[1::2])
    ]


def _without_close_pairs(
    graph: Graph, selected: set[int], backoff: int, allowed: bytearray
) -> set[int]:
    """Selected nodes with no other selected node within ``backoff`` hops
    (distance measured inside H): the mutual-unselection rule.

    One BFS per selected node over the byte mask ``allowed`` of H, level
    by level up to depth ``backoff``, reading the graph's CSR rows; it
    stops at the first other selected node it reaches, which unselects
    its source.
    """
    offsets, indices = graph.csr()
    survivors = set()
    for source in selected:
        seen = {source}
        frontier = [source]
        for _ in range(backoff):
            reached = []
            for v in frontier:
                for u in indices[offsets[v] : offsets[v + 1]]:
                    if allowed[u] and u not in seen:
                        seen.add(u)
                        reached.append(u)
            if not selected.isdisjoint(reached):
                break
            frontier = reached
        else:
            survivors.add(source)
    return survivors
