"""Happiness layers (phase (5) of the randomized algorithms).

After the marking process, a node of H is *happy* if it can reach slack —
a T-node or the boundary of H — through uncolored nodes within distance
2r.  Happy nodes are arranged into layers C_0, .., C_{2r} by distance to
their slack and removed; they are colored in reverse layer order in phase
(7), where the slack guarantees the final step:

* a T-node sees two neighbours of the same color (color one), so at most
  deg−1 distinct colors;
* a boundary node (degree < Δ in H) either has degree < Δ in G, or has a
  neighbour in the removed B-layers, which is colored *after* phase (7).

The subtle part, straight from the paper: marked nodes (colored 1) within
distance r of the boundary are *uncolored* first.  Otherwise a marked node
could sit on every path between an inner node and the boundary, breaking
the "uncolored neighbour in the previous layer" contract of the reverse
coloring.  Uncoloring a mark may demote its selector from T-node status;
the demoted selector simply becomes an ordinary node that reaches the
boundary through the now-uncolored mark (the paper's reassignment cascade
— a single depth-2r BFS from the post-uncoloring seed set implements it).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field

from repro import native
from repro.graphs.bfs import bfs_distances, distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.core.marking import MARK_COLOR, MarkingOutcome
from repro.native import address

__all__ = ["HappinessLayers", "build_happiness_layers"]


@dataclass
class HappinessLayers:
    """Output of phase (5).

    ``layers[i]`` is C_i (``layers[0]`` = T-nodes ∪ boundary); ``leftover``
    is the unhappy remainder L (to be handled by phase (6)); ``marked``
    is the set of still-colored marked nodes (removed from H alongside the
    layers); ``uncolored_marks`` counts marks wiped by the boundary rule.
    """

    layers: list[list[int]] = field(default_factory=list)
    leftover: set[int] = field(default_factory=set)
    marked: set[int] = field(default_factory=set)
    t_nodes: set[int] = field(default_factory=set)
    boundary: set[int] = field(default_factory=set)
    uncolored_marks: int = 0


def build_happiness_layers(
    graph: Graph,
    colors: list[int],
    h_nodes: set[int],
    h_mask: bytes | bytearray,
    marking: MarkingOutcome,
    delta: int,
    r: int,
    ledger: RoundLedger | None = None,
) -> HappinessLayers:
    """Phase (5): boundary uncoloring, seed computation, C-layer BFS.

    Mutates ``colors`` (marks near the boundary are uncolored).  Charges
    ``r`` rounds for the boundary flood and ``2r`` for the layer BFS,
    also when H is empty.  The H-degrees come from H's own CSR rows
    (never a pass over all m edges), and both searches run inside H's
    byte mask, so both go to the kernel's ``level_bfs``.  ``h_mask`` is
    that mask (n bytes, nonzero exactly on H), as phase (3) returns it;
    it is not modified.

    Every node of H is uncolored on entry but the marks, which
    ``marking`` colored (phase (4)); so once the boundary rule has
    uncolored some of them, H's uncolored part is H minus the marks
    still colored, and no pass over H's colors is made.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    result = HappinessLayers()
    ledger.charge(r + 2 * r)
    if not h_nodes:
        return result

    h_mask = bytearray(h_mask)
    boundary = _boundary(graph, h_nodes, h_mask, delta)
    result.boundary = boundary

    # Uncolor marks within distance r of the boundary (distance inside H).
    marked = set(marking.marked)
    if boundary and marked:
        dist_to_boundary = bfs_distances(graph, boundary, max_depth=r, allowed=h_mask)
        for m in list(marked):
            if dist_to_boundary[m] != -1:
                colors[m] = UNCOLORED
                marked.discard(m)
                result.uncolored_marks += 1

    # Recompute T-node status: both marks must still carry color one.
    t_alive = {
        t
        for t, (u1, u2) in marking.t_nodes.items()
        if colors[u1] == MARK_COLOR and colors[u2] == MARK_COLOR
    }
    result.t_nodes = t_alive
    result.marked = marked

    seeds = t_alive | boundary
    for v in marked:
        h_mask[v] = 0  # from here on the mask holds H's uncolored part
    # Demoted T-nodes and uncolored marks are plain uncolored nodes now and
    # participate in the BFS as relay/layer nodes.
    layers = distance_layers(graph, seeds - marked, max_depth=2 * r, allowed=h_mask)
    result.layers = layers
    # The layers hold uncolored nodes of H only, so equal counts mean no
    # leftover.  Otherwise the uncolored part is built in H's order, as
    # the comprehension over H's colors built it, so the leftover set
    # (phase (6) reads it in its iteration order) is that set's.
    if sum(map(len, layers)) < len(h_nodes) - len(marked):
        uncolored_h = {v for v in h_nodes if v not in marked}
        layered = {v for layer in layers for v in layer}
        result.leftover = uncolored_h - layered
    return result


def _boundary(
    graph: Graph, h_nodes: set[int], h_mask: bytearray, delta: int
) -> set[int]:
    """Nodes of H with fewer than ``delta`` neighbours in H, from the CSR
    rows of H only (O(|H|·Δ)), by the kernel's ``h_boundary`` when it is
    loaded; ``h_mask`` is H's byte mask.  The set is built in the order
    of ``h_nodes``, as the twin builds it."""
    kernel = native.kernel("h_boundary")
    if kernel is None:
        return _boundary_python(graph, h_nodes, h_mask, delta)
    count = len(h_nodes)
    try:
        nodes = struct.pack(f"{count}i", *h_nodes)
    except struct.error:  # a node beyond a C int: left to the twin
        return _boundary_python(graph, h_nodes, h_mask, delta)
    offsets, indices = graph.csr()
    mask = array("B", h_mask)
    out = array("i", bytes(4 * count))
    size = kernel(
        address(offsets), address(indices), graph.n,
        address(mask), nodes, count, delta, address(out),
    )
    if size < 0:  # a node outside 0..n-1: left to the twin
        return _boundary_python(graph, h_nodes, h_mask, delta)
    return set(out[:size])


def _boundary_python(
    graph: Graph, h_nodes: set[int], h_mask: bytearray, delta: int
) -> set[int]:
    """The per-node loop behind :func:`_boundary` (reference twin)."""
    offsets, indices = graph.csr()
    return {
        v for v in h_nodes
        if sum(h_mask[u] for u in indices[offsets[v] : offsets[v + 1]]) < delta
    }
