"""Degree-choosable component detection and the virtual graph G_DCC.

Phase (1) of the randomized algorithms: every node contained in a
degree-choosable subgraph of radius <= r selects one such subgraph; the
selected subgraphs form the virtual graph G_DCC (two subgraphs adjacent if
they share a vertex or are joined by a G-edge), on which phase (2)
computes a (2, β) ruling set whose components become the base layer B0.

**Detection**: node v collects its radius-r ball (r LOCAL rounds), takes
the block decomposition of the induced subgraph, and selects the first
block containing v that is neither a clique nor an odd cycle.  Such a
block is 2-connected, hence a DCC (Definition 9), and lives inside the
ball so its radius around v is <= 2r.  Conversely any DCC of radius
<= r/2 around v lies inside the ball and forces the block containing it to
be a DCC, so detection at radius r is complete for DCCs of radius <= r/2.

A ball is kept only if it has >= 4 members and at least as many in-ball
edges as members; otherwise it induces a tree (the overwhelmingly common
case on locally-tree-like graphs) and cannot host a 2-connected block.
A kept ball is peeled to its 2-core, where every block lives; a core
that is one cycle skips the Hopcroft–Tarjan walk.  Nodes go in
ascending order, and the selected block's unselected members adopt it,
so an adopted node never collects its ball.  The whole phase (ball
collection, in-ball degrees, tree reject, peel, block selection and
adoption: about n·Δ^(r+1) probes) runs in one C entry point,
``dcc_detect`` in ``repro/kernel.c``, built with the system compiler on
first use and called through ctypes (``repro.native``); Python only
wraps the selected DCCs (≈490 at n=32768, Δ=8, r=2) into tuples.  Its
pure-Python twin (:func:`_ball_cores_python` feeding
:func:`_select_blocks_python`) is pinned bit-identical to it and runs when no
compiler is available.  Wall time is ``solver.1-dcc-detect.ms`` in
perfbench (perfbench/README.md).

**Virtual MIS** — the ruling set of G_DCC is computed by Luby/Ghaffari
rounds *simulated through member nodes*: each live DCC draws a priority,
every member node learns the max priority of the DCCs it belongs to, one
G-round spreads these to neighbours, and each DCC aggregates over its
members — exactly adjacency "share a vertex or a G-edge".  One virtual
round costs O(r) real rounds, as the paper states.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from dataclasses import dataclass, field

from repro import native
from repro.native import address
from repro.graphs.blocks import blocks_through
from repro.graphs.graph import Graph
from repro.local.rounds import RoundLedger

__all__ = ["DCCDetection", "DCCScratch", "detect_dccs", "virtual_graph_ruling_set"]


@dataclass
class DCCDetection:
    """Output of phase (1).

    ``dccs`` lists the distinct selected DCCs (each a sorted node tuple);
    ``selected_by[v]`` is the index (into ``dccs``) of the DCC node v
    selected, or -1; ``nodes_in_dccs`` is the union of all selected DCCs.
    ``rounds`` is the LOCAL cost charged (ball collection).
    """

    dccs: list[tuple[int, ...]] = field(default_factory=list)
    selected_by: list[int] = field(default_factory=list)
    nodes_in_dccs: set[int] = field(default_factory=set)
    rounds: int = 0


# DCCs per kernel call; a full buffer ends the call and the pass resumes
# at the node whose DCC did not fit.
_OUT_DCCS = 1024


class DCCScratch:
    """Reusable O(n) scratch for :func:`detect_dccs` sweeps.

    One allocation of the byte mask, the Hopcroft–Tarjan disc/low arrays,
    the active-membership mask and (when the native kernel runs) its
    ``array('i')`` work, selection and output buffers serves *every*
    ``detect_dccs`` call on graphs of the same node count — the
    per-component call sites (``repro.core.small_components``) call it
    once per small component, which would otherwise pay O(n) allocations
    to look at a 10-node component.  Masks, degrees and selections are
    returned to their rest state after each call, so sharing is safe.
    """

    __slots__ = ("n", "mask", "scratch", "active_mask", "_kernel_buffers")

    def __init__(self, n: int):
        self.n = n
        self.mask = bytearray(n)
        self.scratch = ([0] * n, [0] * n)
        self.active_mask = bytearray(n)
        self._kernel_buffers: tuple[array, ...] | None = None

    def kernel_buffers(self) -> tuple[array, ...]:
        """``(zeroed, work, selected_by, sizes, members)`` for the native
        kernel, allocated on first use: ``zeroed`` (2n, zero at rest),
        ``work`` (7n), ``selected_by`` (n, -1 at rest), ``sizes`` and
        ``members``; ``members`` holds at least ``n`` entries, so any
        single DCC fits."""
        if self._kernel_buffers is None:
            n = self.n
            zeroed, work, sizes, members = (
                array("i", bytes(4 * size))
                for size in (2 * n, 7 * n, _OUT_DCCS, n + 8 * _OUT_DCCS)
            )
            self._kernel_buffers = (
                zeroed, work, array("i", [-1]) * n, sizes, members
            )
        return self._kernel_buffers


def detect_dccs(
    graph: Graph,
    radius: int,
    active: set[int] | None = None,
    ledger: RoundLedger | None = None,
    scratch: DCCScratch | None = None,
) -> DCCDetection:
    """Phase (1): per-node DCC selection at detection radius ``radius``.

    Every active node whose radius-``radius`` ball (within the active set)
    contains a non-clique / non-odd-cycle block through it selects that
    block, in ascending node order.  The block's unselected members adopt
    it, so nodes choosing the same block share one virtual node (the
    paper's "subgraphs sharing a vertex are adjacent" semantics with
    fewer virtual nodes), and an adopted node does not detect.

    ``scratch`` may carry a :class:`DCCScratch` of matching ``n`` reused
    across calls (the layered/per-component pipelines call this once per
    small component; without sharing, every call pays O(n) allocations).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    ledger.charge(radius)
    detection = DCCDetection(selected_by=[-1] * graph.n, rounds=radius)
    state = _DetectState(graph, detection, scratch)
    nodes = None if active is None else sorted(set(active))
    allowed = None
    if nodes is not None:
        if nodes and (nodes[0] < 0 or nodes[-1] >= graph.n):
            raise IndexError(f"active node out of range for n={graph.n}")
        allowed = state.active_mask
        for v in nodes:
            allowed[v] = 1
    kernel = native.kernel("dcc_detect")
    if kernel is None:
        for v, core, cycle in _ball_cores_python(state, radius, nodes, allowed):
            _select_blocks_python(state, v, core, cycle)
    else:
        _detect_native(kernel, state, radius, nodes, allowed)
    if allowed is not None:
        for v in nodes:
            allowed[v] = 0
    return detection


def _detect_native(kernel, state: "_DetectState", radius: int, nodes, allowed) -> None:
    """The whole phase in ``kernel.c``'s ``dcc_detect``, one output
    buffer of DCCs per kernel call; the kernel's selections are copied
    into the detection and its ``selected_by`` buffer is left at -1."""
    graph = state.graph
    count = graph.n if nodes is None else len(nodes)
    if count == 0:
        return
    offsets, indices = graph.csr()
    zeroed, work, chosen, sizes, members = state.shared.kernel_buffers()
    node_buf = None if nodes is None else array("i", nodes)
    # The byte masks are exported for the whole sweep (never resized).
    mask = ctypes.c_char.from_buffer(state.mask)
    active = None if allowed is None else ctypes.c_char.from_buffer(allowed)
    args = (
        address(offsets), address(indices), graph.n, radius,
        None if active is None else ctypes.addressof(active),
        None if node_buf is None else address(node_buf),
        count,
    )
    work_args = (
        ctypes.addressof(mask), address(zeroed), address(work), address(chosen),
    )
    out = (address(sizes), len(sizes), address(members), len(members))
    detection = state.detection
    dccs = detection.dccs
    emitted = ctypes.c_int()
    start = 0
    while start < count:
        start = kernel(
            *args, start, *work_args, len(dccs), *out, ctypes.byref(emitted)
        )
        lengths = sizes[: emitted.value].tolist()
        body = members[: sum(lengths)].tolist()
        at = 0
        for size in lengths:
            dccs.append(tuple(body[at : at + size]))
            at += size
    selected_by = state.selected_by
    nodes_in_dccs = detection.nodes_in_dccs
    for dcc in dccs:
        nodes_in_dccs.update(dcc)
        for u in dcc:
            dcc_id = chosen[u]
            if dcc_id != -1:
                selected_by[u] = dcc_id
                chosen[u] = -1


def _ball_cores_python(state: "_DetectState", radius: int, nodes, allowed):
    """Pure-Python twin of ``dcc_detect``'s ball pass (steps 1-3 there;
    :func:`_select_blocks_python` is steps 4-5): per node ``v`` (ascending),
    collect its radius-``radius`` ball (within ``allowed`` when given),
    reject it if it has < 4 members or fewer in-ball edges than members
    (a tree hosts no 2-connected block), peel it to its 2-core, and yield
    ``(v, core, single_cycle)`` when ``v`` survives in a core of >= 4
    nodes.  ``single_cycle`` says every core degree is 2.

    Every 2-connected block lives inside the 2-core of the ball, so the
    Hopcroft–Tarjan walk sees only the usually-tiny cycle-carrying core,
    and ``v`` being peeled proves no block contains it.  Rows are made
    lazily: a node selected by adoption before its turn is skipped
    before any work, as in the kernel.
    """
    graph = state.graph
    adj = graph.adj
    selected_by = state.selected_by
    mask = state.mask
    deg = state.scratch[0]  # shares the blocks_through disc scratch (zeroed)
    for v in range(graph.n) if nodes is None else nodes:
        if selected_by[v] != -1:
            continue
        # Level-order frontier expansion over the reusable byte masks.
        mask[v] = 1
        ball = [v]
        frontier = [v]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not mask[w] and (allowed is None or allowed[w]):
                        mask[w] = 1
                        nxt.append(w)
            ball.extend(nxt)
            frontier = nxt
        twice_edges = 0
        if len(ball) >= 4:
            for u in ball:
                d = 0
                for w in adj[u]:
                    if mask[w]:
                        d += 1
                deg[u] = d
                twice_edges += d
        core = None
        if twice_edges >= 2 * len(ball):
            stack = [u for u in ball if deg[u] <= 1]
            alive = len(ball)
            while stack:
                u = stack.pop()
                if not mask[u]:
                    continue
                mask[u] = 0
                alive -= 1
                for w in adj[u]:
                    if mask[w]:
                        dw = deg[w] - 1
                        deg[w] = dw
                        if dw == 1:
                            stack.append(w)
            if alive >= 4 and mask[v]:
                core = [u for u in ball if mask[u]]
                cycle = all(deg[u] == 2 for u in core)
        for u in ball:
            mask[u] = 0
            deg[u] = 0
        if core is not None:
            yield v, core, cycle


class _DetectState:
    """Per-sweep state (adoption, core memo) over a reusable :class:`DCCScratch`."""

    __slots__ = (
        "graph", "detection", "selected_by", "shared", "mask", "scratch",
        "active_mask", "core_blocks",
    )

    def __init__(
        self, graph: Graph, detection: DCCDetection, shared: DCCScratch | None
    ):
        if shared is None:
            shared = DCCScratch(graph.n)
        elif shared.n != graph.n:
            raise ValueError(
                f"DCCScratch is sized for n={shared.n}, graph has n={graph.n}"
            )
        self.graph = graph
        self.detection = detection
        self.selected_by = detection.selected_by
        self.shared = shared
        self.mask = shared.mask
        self.scratch = shared.scratch
        self.active_mask = shared.active_mask
        # Block decompositions per distinct (canonicalised) core: on
        # locally-tree-like graphs the nodes of one cycle cluster all
        # peel to the *same* core, so the Hopcroft–Tarjan walk and the
        # clique/odd-cycle verdicts run once per core, not once per node.
        self.core_blocks: dict[tuple[int, ...], list] = {}


def _select_blocks_python(
    state: _DetectState, v: int, core: list[int], cycle: bool
) -> None:
    """Let ``v`` select its first qualifying block inside ``core``.

    The qualifying blocks of the core's decomposition (neither clique
    nor odd cycle, :func:`_is_dcc_block`) are memoised per distinct core
    under its sorted node tuple — ``blocks_through(v)`` equals the full list
    filtered to blocks containing ``v``, in the same discovery order, so
    every node of a shared core selects identically to a private walk.
    ``cycle`` says every core node has core degree 2: the 2-core of a
    (connected) ball is connected, so the core is one cycle, its own only
    block, and a DCC iff its length is even — no Hopcroft–Tarjan walk
    needed (most cores on locally-tree-like graphs are one short cycle).
    ``state.mask`` is clear on entry and on return.
    """
    graph = state.graph
    mask = state.mask
    key = tuple(sorted(core))
    cached = state.core_blocks.get(key)
    if cached is None:
        if cycle:
            cached = [(set(key), key)] if len(key) % 2 == 0 else []
        else:
            for u in core:
                mask[u] = 1
            # The qualifying blocks of the core, in discovery order and
            # original labels.
            cached = []
            adj = graph.adj
            for block in blocks_through(
                graph, None, core, mask=mask, scratch=state.scratch
            ):
                if len(block) >= 4:
                    block_set = set(block)
                    if _is_dcc_block(adj, block, block_set):
                        cached.append((block_set, tuple(block)))
            for u in core:
                mask[u] = 0
        state.core_blocks[key] = cached
    chosen: tuple[int, ...] | None = None
    for block_set, block in cached:
        if v in block_set:
            chosen = block
            break
    if chosen is None:
        return
    # ``chosen`` is always new: had it been chosen before, v (a member)
    # would have adopted it then and not be selecting now.
    detection = state.detection
    dcc_id = len(detection.dccs)
    detection.dccs.append(chosen)
    # Every member of the block that has not selected yet adopts it; this
    # matches "each node selects one such subgraph" while keeping the
    # virtual graph small.
    selected_by = state.selected_by
    for u in chosen:
        if selected_by[u] == -1:
            selected_by[u] = dcc_id
        detection.nodes_in_dccs.add(u)


def _is_dcc_block(adj, block: list[int], members: set[int]) -> bool:
    """Is ``block`` (a block of an induced subgraph, >= 4 nodes) neither a
    clique nor an odd cycle?

    Read from the in-block degrees alone: a block is connected, so it is
    a clique iff every in-block degree is ``k - 1`` and an odd cycle iff
    ``k`` is odd and every in-block degree is 2.  The first node's degree
    says which of the two uniform patterns is still possible.
    """
    k = len(block)
    target = len(members.intersection(adj[block[0]]))
    if target != k - 1 and (target != 2 or k % 2 == 0):
        return True
    return any(len(members.intersection(adj[u])) != target for u in block)


def virtual_graph_ruling_set(
    graph: Graph,
    dccs: list[tuple[int, ...]],
    rounds_per_virtual: int,
    ledger: RoundLedger | None = None,
    rng: random.Random | None = None,
    method: str = "luby",
    max_iterations: int | None = None,
) -> tuple[list[int], int]:
    """Phase (2): independent set of G_DCC covering all DCCs (a (2, β)
    ruling set run to maximality, so β is the virtual diameter bound 1).

    Virtual Luby/Ghaffari: per iteration every live DCC draws a priority;
    a DCC joins if its priority beats every DCC it conflicts with
    (sharing a node or joined by a G-edge); joiners knock out their
    conflicting DCCs.  Each iteration is charged ``2 * rounds_per_virtual``
    real rounds (priority aggregation over the DCC's diameter + one
    G-round + the symmetric removal flood).

    Returns ``(chosen_dcc_indices, iterations)``.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    num = len(dccs)
    if num == 0:
        return [], 0
    # owners_of[v]: DCC indices containing v (almost always 0 or 1 entries;
    # the flat list avoids dict probes in the edge scan below).
    owners_of: list[list[int] | None] = [None] * graph.n
    for idx, dcc in enumerate(dccs):
        for v in dcc:
            cell = owners_of[v]
            if cell is None:
                owners_of[v] = [idx]
            else:
                cell.append(idx)
    # Conflict adjacency between DCC indices (share node or G-edge).
    conflicts: list[set[int]] = [set() for _ in range(num)]
    offsets, indices = graph.csr()
    for v, owners in enumerate(owners_of):
        if owners is None:
            continue
        for i, a in enumerate(owners):
            for b in owners[i + 1:]:
                conflicts[a].add(b)
                conflicts[b].add(a)
        for u in indices[offsets[v] : offsets[v + 1]]:
            if u < v:
                continue  # each edge contributes once; conflicts are symmetric
            others = owners_of[u]
            if others is None:
                continue
            for b in others:
                for a in owners:
                    if a != b:
                        conflicts[a].add(b)
                        conflicts[b].add(a)

    live = set(range(num))
    chosen: list[int] = []
    iterations = 0
    desire = {i: 0.5 for i in live} if method == "ghaffari" else None
    while live and (max_iterations is None or iterations < max_iterations):
        iterations += 1
        ledger.charge(2 * rounds_per_virtual)
        if desire is None:
            contenders = live
        else:
            contenders = {i for i in live if rng.random() < desire[i]}
            for i in live:
                load = sum(desire[j] for j in conflicts[i] if j in live)
                desire[i] = desire[i] / 2 if load >= 2.0 else min(2 * desire[i], 0.5)
        priority = {i: (rng.random(), i) for i in contenders}
        joiners = [
            i
            for i in contenders
            if all(
                priority[i] > priority[j]
                for j in conflicts[i]
                if j in contenders
            )
        ]
        removed = set(joiners)
        for i in joiners:
            chosen.append(i)
            removed |= conflicts[i] & live
        live -= removed
    if live:
        # Deterministic finisher for iteration-capped runs: admit the
        # remaining non-conflicting stragglers greedily by index (each is
        # dominated by a chosen DCC otherwise).
        chosen_set = set(chosen)
        for i in sorted(live):
            if not (conflicts[i] & chosen_set):
                chosen.append(i)
                chosen_set.add(i)
        ledger.charge(rounds_per_virtual)
    return sorted(chosen), iterations
