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
adoption) runs in one C entry point, ``dcc_detect`` in
``repro/kernel.c``, built with the system compiler on first use and
called through ctypes (``repro.native``); Python only wraps the selected
DCCs (≈490 at n=32768, Δ=8, r=2) into tuples.  Its pure-Python twin
(:func:`_ball_cores_python` feeding :func:`_select_blocks_python`) is
pinned bit-identical to it and runs when no compiler is available.  Wall
time is ``solver.1-dcc-detect.ms`` in perfbench (perfbench/README.md).

On locally-tree-like graphs almost no ball holds a DCC, so the kernel
first finds the nodes that can select one (``short_cycles``) and
collects only their balls.  Two facts make that exact:

* a node that selects lies in a 2-connected block of its ball with >= 4
  nodes, so some in-ball edge joins two BFS branches of v, and the two
  tree paths plus that edge form a cycle through v of length <= 2r+1;
* every cycle of length <= 2r+1 lies in the restricted ball of its
  smallest node x (depth r, stepping only onto nodes > x), hence in
  that ball's 2-core.

One sweep over the restricted balls (about a third of the full balls'
probes) marks their 2-cores; only marked nodes collect a ball, and an
unmarked node at the ball's rim is known to have in-ball degree 1, so
its row is not read.  Where short cycles are everywhere the sweep is a
loss, so it stops once more than half the swept nodes are marked and
every ball is collected, as without it.

**Virtual MIS** — the ruling set of G_DCC is computed by Luby rounds
*simulated through member nodes*: each live DCC draws a priority, every
member node learns the max priority of the DCCs it belongs to, one
G-round spreads these to neighbours, and each DCC aggregates over its
members — exactly adjacency "share a vertex or a G-edge".  One virtual
round costs O(r) real rounds, as the paper states.  The kernel's
``virtual_ruling_set`` finds each DCC's conflicts the same way, through
a table of the DCCs owning each member node, and lists them once; then
each iteration is one call that reads its coins from one
``rng.randbytes`` block (live DCC k of the live set's iteration order
draws what the k-th ``rng.random()`` would).  Its twin
:func:`_ruling_set_python` builds the conflict sets in Python and draws
with ``rng.random()``.  Wall time is ``solver.2-dcc-ruling-set.ms`` in
perfbench.
"""

from __future__ import annotations

import ctypes
import random
import struct
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress

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
    """

    dccs: list[tuple[int, ...]] = field(default_factory=list)
    selected_by: list[int] = field(default_factory=list)
    nodes_in_dccs: set[int] = field(default_factory=set)


# DCCs per kernel call; a full buffer ends the call and the pass resumes
# at the node whose DCC did not fit.
_OUT_DCCS = 1024


class DCCScratch:
    """Reusable O(n) scratch for :func:`detect_dccs` sweeps.

    One allocation of the byte mask, the Hopcroft–Tarjan disc/low arrays,
    the active-membership mask, the kernel's short-cycle marks and (when
    the native kernel runs) its ``array('i')`` work, selection and output
    buffers serves *every* ``detect_dccs`` call on graphs of the same
    node count — the per-component call sites
    (``repro.core.small_components``) call it once per small component,
    which would otherwise pay O(n) allocations to look at a 10-node
    component.  Masks, marks, degrees and selections are returned to
    their rest state after each call, so sharing is safe.
    """

    __slots__ = ("n", "mask", "scratch", "active_mask", "cyclic", "_kernel_buffers")

    def __init__(self, n: int):
        self.n = n
        self.mask = bytearray(n)
        self.scratch = ([0] * n, [0] * n)
        self.active_mask = bytearray(n)
        self.cyclic = bytearray(n)
        self._kernel_buffers: tuple[array, ...] | None = None

    def kernel_buffers(self) -> tuple[array, ...]:
        """``(zeroed, work, selected_by, sizes, members)`` for the native
        kernel, allocated on first use: ``zeroed`` (2n, zero at rest),
        ``work`` (7n), ``selected_by`` (n, -1 at rest), ``sizes`` and
        ``members``; ``members`` holds at least ``n`` entries, so any
        single DCC fits.  :func:`virtual_graph_ruling_set` keeps its
        owners table in the first n entries of ``zeroed``."""
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
    detection = DCCDetection(selected_by=[-1] * graph.n)
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
    """The whole phase in ``kernel.c``: ``short_cycles`` marks the nodes
    that can select, once per sweep, then ``dcc_detect`` runs over them
    (over every node when the marks are dropped as too dense), one
    output buffer of DCCs per call; the kernel's selections are copied
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
    cyclic = state.shared.cyclic
    marks = ctypes.addressof(ctypes.c_char.from_buffer(cyclic))
    args = (
        address(offsets), address(indices), graph.n, radius,
        None if active is None else ctypes.addressof(active),
        None if node_buf is None else address(node_buf),
        count,
    )
    work_args = (ctypes.addressof(mask), address(zeroed), address(work))
    marked = native.kernel("short_cycles")(*args, *work_args, marks)
    if marked == 0:
        return  # no node lies on a short cycle, so none selects
    filtered = marked > 0
    out = (address(sizes), len(sizes), address(members), len(members))
    detection = state.detection
    dccs = detection.dccs
    emitted = ctypes.c_int()
    start = 0
    while start < count:
        start = kernel(
            *args, start, marks if filtered else None, *work_args,
            address(chosen), len(dccs), *out, ctypes.byref(emitted),
        )
        lengths = sizes[: emitted.value].tolist()
        body = members[: sum(lengths)].tolist()
        at = 0
        for size in lengths:
            dccs.append(tuple(body[at : at + size]))
            at += size
    if filtered:
        if nodes is None:
            ctypes.memset(marks, 0, count)
        else:
            for v in nodes:
                cyclic[v] = 0
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
    max_iterations: int | None = None,
    scratch: DCCScratch | None = None,
) -> tuple[list[int], int]:
    """Phase (2): independent set of G_DCC covering all DCCs (a (2, β)
    ruling set run to maximality, so β is the virtual diameter bound 1).

    Virtual Luby: per iteration every live DCC draws a priority; a DCC
    joins if its priority beats every DCC it conflicts with (sharing a
    node or joined by a G-edge); joiners knock out their conflicting
    DCCs.  Each iteration is charged ``2 * rounds_per_virtual`` real
    rounds (priority aggregation over the DCC's diameter + one G-round
    + the symmetric removal flood).  When ``max_iterations`` stops the
    loop early, the live DCCs with no chosen conflict are admitted
    greedily by index, for ``rounds_per_virtual`` more rounds.

    Every member must lie in ``0..n-1`` (``IndexError``) and no DCC may
    hold a node twice (``ValueError``); both are raised before any coin
    is drawn or round charged.  ``scratch`` may carry the
    :class:`DCCScratch` of matching ``n`` that the caller's
    :func:`detect_dccs` calls share; the kernel takes its owners table
    from there instead of allocating O(n) per call.

    Returns ``(chosen_dcc_indices, iterations)``, the indices ascending.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    if scratch is not None and scratch.n != graph.n:
        raise ValueError(f"DCCScratch is sized for n={scratch.n}, graph has n={graph.n}")
    if not dccs:
        return [], 0
    kernel = native.kernel("virtual_ruling_set")
    if kernel is not None:
        result = _ruling_set_native(
            kernel, graph, dccs, rounds_per_virtual, ledger, rng, max_iterations, scratch
        )
        if result is not None:
            return result
    return _ruling_set_python(graph, dccs, rounds_per_virtual, ledger, rng, max_iterations)


def _ruling_set_native(
    kernel, graph: Graph, dccs, rounds_per_virtual: int, ledger: RoundLedger,
    rng: random.Random, max_iterations: int | None, scratch: DCCScratch | None,
) -> tuple[list[int], int] | None:
    """Phase (2) in the kernel's ``virtual_ruling_set``: one call builds
    every DCC's conflict list (again, with room for them all, when the
    first guess was short), then one call per Luby iteration and one for
    the finisher read them.  ``None``, with nothing drawn or charged,
    for an input the build refuses; the twin raises on it.

    Python keeps the live set, so its iteration order, which decides
    which coin each DCC draws, is the twin's: after a shrinking
    ``difference_update`` CPython may rebuild the table, and then small
    ints no longer come out ascending.  Iteration k draws one
    ``rng.randbytes(8·|live|)`` block, which leaves the rng where
    ``|live|`` ``random()`` calls leave it."""
    n, num = graph.n, len(dccs)
    try:
        ends = struct.pack(f"{num}i", *accumulate(map(len, dccs)))
        total = struct.unpack_from("i", ends, 4 * (num - 1))[0]
        members = struct.pack(f"{total}i", *chain.from_iterable(dccs))
    except struct.error:  # a member beyond a C int: the twin raises
        return None
    offsets, indices = graph.csr()
    heads = (
        array("i", bytes(4 * n)) if scratch is None else scratch.kernel_buffers()[0]
    )
    links = array("i", bytes(8 * total))
    conflict_ends = array("i", bytes(4 * num))
    state = array("B", bytes(num))
    keys = array("Q", bytes(8 * num))
    out = array("i", bytes(4 * num))
    table = (address(offsets), address(indices), n, members, ends, num, address(heads),
             address(links), address(conflict_ends))
    work = (address(state), address(keys), address(out))
    # Room for 8 conflicts a member; rrg Δ=8 at n=4096, where DCCs
    # crowd, needs about 5.
    conflicts = array("i", bytes(4 * (8 * total + 64)))
    size = kernel(*table, address(conflicts), len(conflicts), None, 0, None, *work)
    if size > len(conflicts):  # dense conflicts: build again with room for all
        conflicts = array("i", bytes(4 * size))
        size = kernel(*table, address(conflicts), size, None, 0, None, *work)
    if size < 0:
        return None
    lists = (*table, address(conflicts), size)
    live = set(range(num))
    iterations = 0
    while live and (max_iterations is None or iterations < max_iterations):
        iterations += 1
        ledger.charge(2 * rounds_per_virtual)
        order = array("i", live)
        block = rng.randbytes(8 * len(order))
        removed = kernel(*lists, address(order), len(order), block, *work)
        live.difference_update(out[:removed])
    if live:
        order = array("i", sorted(live))
        kernel(*lists, address(order), len(order), None, *work)
        ledger.charge(rounds_per_virtual)
    return list(compress(range(num), state)), iterations


def _ruling_set_python(
    graph: Graph, dccs, rounds_per_virtual: int, ledger: RoundLedger,
    rng: random.Random, max_iterations: int | None,
) -> tuple[list[int], int]:
    """The virtual ruling set in Python (reference twin of the kernel's
    ``virtual_ruling_set``): the same checks, the same conflicts and the
    same coins in the same order, so the same DCCs are chosen."""
    n = graph.n
    for idx, dcc in enumerate(dccs):
        for v in dcc:
            if not 0 <= v < n:
                raise IndexError(f"DCC {idx} holds a node out of range for n={n}")
    # owners_of[v]: the DCC indices containing v (almost always one).
    owners_of: dict[int, list[int]] = {}
    for idx, dcc in enumerate(dccs):
        for v in dcc:
            cell = owners_of.get(v)
            if cell is None:
                owners_of[v] = [idx]
            elif cell[-1] == idx:
                raise ValueError(f"DCC {idx} holds node {v} twice")
            else:
                cell.append(idx)
    # Conflict adjacency between DCC indices (share node or G-edge).
    conflicts: list[set[int]] = [set() for _ in dccs]
    offsets, indices = graph.csr()
    rows = memoryview(indices)
    for v, owners in owners_of.items():
        if len(owners) > 1:
            for i, a in enumerate(owners):
                for b in owners[i + 1:]:
                    conflicts[a].add(b)
                    conflicts[b].add(a)
        for u in rows[offsets[v] : offsets[v + 1]]:
            # Each edge contributes once (conflicts are symmetric); a
            # neighbour with the same owners adds no new pair.
            if u > v:
                others = owners_of.get(u)
                if others is not None and others != owners:
                    for b in others:
                        for a in owners:
                            if a != b:
                                conflicts[a].add(b)
                                conflicts[b].add(a)

    live = set(range(len(dccs)))
    chosen: list[int] = []
    iterations = 0
    while live and (max_iterations is None or iterations < max_iterations):
        iterations += 1
        ledger.charge(2 * rounds_per_virtual)
        priority = {i: (rng.random(), i) for i in live}
        joiners = [
            i
            for i in live
            if all(priority[i] > priority[j] for j in conflicts[i] if j in live)
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
