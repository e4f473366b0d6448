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
On the vectorized path that edge count is the row pass over every ball:
each member probes its upper-triangular neighbours (larger ids only)
against a membership bitmap, so every in-ball edge is probed once, from
its smaller endpoint, and the pass costs half of Σ deg over all ball
members — about n·Δ^(r+1)/2 probes.  In-ball degrees (both
directions) are computed only for the kept balls whose centre is still
unselected, wave by wave, right before their 2-core peel; the bitmap
lives in :class:`DCCScratch`, sized to stay in cache.  A core that is
one cycle skips the Hopcroft–Tarjan walk.  This phase is the hottest of
the randomized pipeline; its wall time is ``solver.1-dcc-detect.ms`` in
perfbench (perfbench/README.md), and docs/API.md lists which fast paths
are pinned bit-identical to their Python twins.

**Virtual MIS** — the ruling set of G_DCC is computed by Luby/Ghaffari
rounds *simulated through member nodes*: each live DCC draws a priority,
every member node learns the max priority of the DCCs it belongs to, one
G-round spreads these to neighbours, and each DCC aggregates over its
members — exactly adjacency "share a vertex or a G-edge".  One virtual
round costs O(r) real rounds, as the paper states.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field

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


# Membership bitmap of the in-ball probes: ``rows × n`` flags, one row per
# ball in the current chunk.  4M cells keep the bitmap inside one core's
# L2 at n=32768 (122 rows a chunk); the row floor keeps huge graphs from
# paying per-chunk call overhead (n=250000: 64 rows, a 16 MB bitmap).
_BITMAP_CELLS = 4_000_000
_MIN_BITMAP_ROWS = 64


# The pure-Python fallback here is not a renamed twin of this kernel but
# the original lazy per-ball counting pass inside detect_dccs (structurally
# different: per-candidate BFS + peel instead of blockwise sparse
# products); the two paths are pinned equivalent by the fixed-seed golden
# tests and the detect_dccs property tests.
# reprolint: disable=RPL007 -- fallback is the lazy path in detect_dccs
def _vectorized_ball_blocks(graph: Graph, radius: int, shared: "DCCScratch"):
    """Blockwise vectorized ball structure for DCC detection (or ``None``).

    Yields ``(np, candidates, balls)`` tuples where ``candidates`` is an
    int array of node ids and row ``i`` of the CSR matrix ``balls``
    holds the radius-``r`` ball members of ``candidates[i]`` (pattern
    only; the in-ball degrees the peel needs are computed lazily, per
    wave, by :func:`_detect_in_waves`):

    * ball rows come from ``(A+I)^r`` (every ball member has an in-ball
      neighbour, so the product pattern *is* the ball);
    * rows that are too small (< 4 nodes) or induce a tree (fewer
      in-ball edges than members) are dropped — the cheap-reject
      conditions.  The edge count probes the upper-triangular adjacency
      (each in-ball edge once, from its smaller endpoint), half the
      volume of per-member degrees.

    The consumer (:func:`detect_dccs`) peels candidate rows in batches
    via :func:`_batched_peel`, in *waves* interleaved with selection, so
    the adoption short-circuit ("a node inside an already-selected block
    never detects") keeps pruning work exactly as it does on the lazy
    pure-Python path.  Returns ``None`` when scipy is unavailable or the
    graph is tiny (the caller then falls back to the per-ball counting
    pass).
    """
    if graph.n < 256 or graph.num_edges == 0:
        return None
    try:
        import numpy as np
        from scipy import sparse
    except Exception:  # pragma: no cover - scipy-free environments
        return None
    offsets, indices = graph.csr()
    n = graph.n
    indptr = np.frombuffer(offsets, dtype=np.int32)
    idx = np.frombuffer(indices, dtype=np.int32)
    adjacency = sparse.csr_matrix(
        (np.ones(len(idx), dtype=np.int32), idx, indptr), shape=(n, n)
    )
    owner = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    upper = idx > owner
    up_idx = idx[upper]
    up_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(owner[upper], minlength=n), out=up_ptr[1:])
    bitmap = shared.bitmap(np)
    # Block the rows so the intermediates stay bounded (~Δ^{r+1} nonzeros
    # per row) even on million-edge inputs.
    delta = max(1, graph.max_degree())
    per_row = min(n, delta ** (radius + 1) + 1)
    step = max(1024, min(n, 4_000_000 // per_row))
    identity = sparse.identity(n, dtype=np.int32, format="csr")

    def blocks():
        for start in range(0, n, step):
            rows = slice(start, min(n, start + step))
            reach = adjacency[rows] + identity[rows]
            reach.data[:] = 1
            for _ in range(radius - 1):
                reach = reach @ adjacency + reach
                reach.data[:] = 1
            # No sort_indices anywhere: member order is irrelevant (the
            # peel is order-free and blocks_through sorts its own roots).
            # In-ball edges via the SDDMM gather (pattern = reach), never
            # materialising the radius-(r+1) reach.
            edges = _in_row_counts(np, reach, up_ptr, up_idx, bitmap, per_row=True)
            ball_sizes = np.diff(reach.indptr)
            keep = (ball_sizes >= 4) & (edges >= ball_sizes)
            candidates = np.flatnonzero(keep) + start
            if not len(candidates):
                continue
            yield (np, candidates, reach[keep])

    return blocks()


class DCCScratch:
    """Reusable O(n) scratch for :func:`detect_dccs` sweeps.

    One allocation of the byte mask, the Hopcroft–Tarjan disc/low arrays,
    the active-membership mask and (on the vectorized path) the numpy
    membership bitmap serves *every* ``detect_dccs`` call on graphs of
    the same node count — the per-layer/per-component call sites
    (``repro.core.small_components``) used to pay a fresh ``O(n)``
    allocation per invocation just to look at a 10-node component, and
    every peel round used to allocate (and page-fault in) a fresh
    bitmap.  All arrays are returned to their zeroed state after each
    call, so sharing is safe.
    """

    __slots__ = ("n", "mask", "scratch", "active_mask", "_bitmap")

    def __init__(self, n: int):
        self.n = n
        self.mask = bytearray(n)
        self.scratch = ([0] * n, [0] * n)
        self.active_mask = bytearray(n)
        self._bitmap = None

    def bitmap(self, np):
        """The zeroed ``rows × n`` probe bitmap, allocated on first use."""
        if self._bitmap is None:
            rows = min(self.n, max(_MIN_BITMAP_ROWS, _BITMAP_CELLS // max(1, self.n)))
            self._bitmap = np.zeros(rows * self.n, dtype=bool)
        return self._bitmap


def _detect_in_waves(state: "_DetectState", np, candidates, balls) -> None:
    """Peel-and-select one yielded block in geometrically growing waves.

    A wave computes in-ball degrees for the next chunk of
    *still-unselected* candidates, batch-peels them
    (:func:`_batched_peel`), then runs selection on the surviving cores
    in ascending node order.  Selection adoption marks whole blocks as
    selected, so later waves skip their members before paying any
    counting or peel work — the exact pruning the sequential path gets
    for free, while each wave stays a batched array operation.  Output
    is identical to peel-then-select per node: selection still runs in
    ascending candidate order and re-checks ``selected_by`` first.
    """
    graph = state.graph
    offsets, indices = graph.csr()
    indptr = np.frombuffer(offsets, dtype=np.int32)
    idx = np.frombuffer(indices, dtype=np.int32)
    bitmap = state.shared.bitmap(np)
    selected_by = state.selected_by
    cand_list = candidates.tolist()
    total = len(cand_list)
    position = 0
    wave = 256
    while position < total:
        batch: list[int] = []
        while position < total and len(batch) < wave:
            if selected_by[cand_list[position]] == -1:
                batch.append(position)
            position += 1
        if not batch:
            continue
        wave *= 2
        core = balls[np.asarray(batch, dtype=np.int64)]
        core.data = _in_row_counts(np, core, indptr, idx, bitmap)
        core = _batched_peel(np, core, indptr, idx, bitmap)
        core_sizes = np.diff(core.indptr)
        centers = candidates[batch]
        # A candidate survives only if its own node is in its core
        # (checked patternwise, no per-row search) and >= 4 remain.
        row_of = np.repeat(np.arange(len(batch), dtype=np.int64), core_sizes)
        center_alive = np.zeros(len(batch), dtype=bool)
        center_alive[row_of[core.indices == centers[row_of]]] = True
        alive = center_alive & (core_sizes >= 4)
        if not alive.any():
            continue
        # A row whose core degrees are all 2 is a single cycle.
        irregular = np.bincount(row_of[core.data != 2], minlength=len(batch))
        cycle = (irregular == 0).tolist()
        c_ptr = core.indptr.tolist()
        c_idx = core.indices.tolist()
        for i in np.flatnonzero(alive).tolist():
            v = cand_list[batch[i]]
            if selected_by[v] != -1:
                continue
            _select_blocks(
                state, v, c_idx[c_ptr[i] : c_ptr[i + 1]], mask_set=False,
                cycle=cycle[i],
            )


def _batched_peel(np, core, indptr, idx, bitmap):
    """2-core peel of every row of ``core`` at once.

    ``core`` is a CSR matrix whose row ``i`` holds the ball members of
    candidate ``i`` with their in-ball degrees as data.  Each round drops
    every degree-<= 1 entry, then recounts surviving degrees with
    :func:`_in_row_counts` (``indptr``/``idx`` are G's CSR buffers).
    Unlike a sparse ``membership @ A`` product this never materialises
    the radius-(r+1) reach of the survivors — the work per round is
    O(Σ deg over surviving entries), which is what keeps large detection
    radii from regressing.  The fixpoint is the unique 2-core of each
    ball, identical to the sequential per-ball peel.
    """
    while True:
        weak = core.data < 2
        if not weak.any():
            return core
        core.data[weak] = 0
        core.eliminate_zeros()
        if core.nnz == 0:
            return core
        core.data[:] = _in_row_counts(np, core, indptr, idx, bitmap)


def _in_row_counts(np, matrix, indptr, idx, bitmap, per_row=False):
    """Count, for every nonzero ``(i, w)`` of the CSR ``matrix``, the
    neighbours ``x`` of ``w`` (row ``w`` of the CSR pair ``indptr``/
    ``idx``) that are themselves in row ``i`` — or, with ``per_row``,
    the sum of those counts over each row.

    The SDDMM-style kernel behind the keep test (over the upper-
    triangular adjacency, where the row sum is the ball's edge count),
    the in-ball degrees and every peel round (over G's full adjacency).
    Work is O(Σ deg over entries): each entry's neighbour row is
    gathered and tested against ``bitmap``, a zeroed ``rows × n``
    membership bitmap filled for one chunk of rows at a time and
    cleared again before returning; nothing outside the existing pattern
    is ever materialised.
    """
    k, n = matrix.shape
    counts = np.zeros(k if per_row else matrix.nnz, dtype=np.int32)
    chunk = len(bitmap) // n
    ptr = matrix.indptr
    row_lens = np.diff(ptr)
    degrees = np.diff(indptr)
    for row0 in range(0, k, chunk):
        row1 = min(k, row0 + chunk)
        lo, hi = int(ptr[row0]), int(ptr[row1])
        if lo == hi:
            continue
        cols = matrix.indices[lo:hi]
        deg = degrees[cols]
        total = int(deg.sum(dtype=np.int64))
        # int32 positions are the fast path; a chunk whose probes or
        # bitmap cells exceed int32 (huge Δ or n) must widen, or the
        # cumsum/arange below would wrap and gather garbage.
        postype = np.int32 if max(total, len(bitmap)) < 2**31 - 1 else np.int64
        row_base = np.arange(0, (row1 - row0) * n, n, dtype=postype)
        cells = np.repeat(row_base, row_lens[row0:row1])
        cells += cols
        bitmap[cells] = True
        bounds = np.empty(len(deg) + 1, dtype=postype)
        bounds[0] = 0
        np.cumsum(deg, out=bounds[1:])
        # Probe p of entry e reads idx[indptr[w_e] + p - bounds[e]] and
        # tests it in its row's slice of the bitmap.
        positions = np.repeat(indptr[cols] - bounds[:-1], deg)
        positions += np.arange(total, dtype=postype)
        row_bounds = bounds[ptr[row0 : row1 + 1] - lo]
        probes = idx[positions].astype(postype, copy=False)
        probes += np.repeat(row_base, np.diff(row_bounds))
        alive = bitmap[probes]
        bitmap[cells] = False
        # Sum each nonempty segment; their starts are strictly increasing,
        # so reduceat needs no clamping and empty segments stay zero.
        segments = row_bounds if per_row else bounds
        lengths = np.diff(segments)
        nonempty = np.flatnonzero(lengths)
        if len(nonempty):
            out = counts[row0:row1] if per_row else counts[lo:hi]
            out[nonempty] = np.add.reduceat(
                alive, segments[:-1][nonempty], dtype=np.int32
            )
    return counts


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
    block.  Selections are deduplicated: nodes choosing the same block
    share one virtual node, mirroring the paper's "subgraphs sharing a
    vertex are adjacent" semantics with fewer virtual nodes.

    ``scratch`` may carry a :class:`DCCScratch` of matching ``n`` reused
    across calls (the layered/per-component pipelines call this once per
    small component; without sharing, every call pays O(n) allocations).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    ledger.charge(radius)
    detection = DCCDetection(selected_by=[-1] * graph.n, rounds=radius)
    state = _DetectState(graph, detection, scratch)
    if active is None:
        vectorized = _vectorized_ball_blocks(graph, radius, state.shared)
        if vectorized is not None:
            for np, candidates, balls in vectorized:
                _detect_in_waves(state, np, candidates, balls)
            return detection
        nodes: Iterable[int] = range(graph.n)
        allowed = None
    else:
        nodes = sorted(set(active))
        allowed = state.active_mask
        for v in nodes:
            allowed[v] = 1
    # Pure-Python fallback: per-node ball collection and counting, with a
    # specialised frontier expansion over the reusable byte masks (no
    # dict/deque/predicate call), visiting nodes in bfs_ball level order.
    adj = graph.adj
    selected_by = state.selected_by
    mask = state.mask
    for v in nodes:
        if selected_by[v] != -1:
            continue
        mask[v] = 1
        ball = [v]
        frontier = [v]
        if allowed is None:
            for _ in range(radius):
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if not mask[w]:
                            mask[w] = 1
                            nxt.append(w)
                ball.extend(nxt)
                frontier = nxt
        else:
            for _ in range(radius):
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if allowed[w] and not mask[w]:
                            mask[w] = 1
                            nxt.append(w)
                ball.extend(nxt)
                frontier = nxt
        if len(ball) < 4:
            for u in ball:
                mask[u] = 0
            continue
        # Acyclicity test on the ball: count in-ball edge endpoints (and
        # record per-node in-ball degrees for the 2-core peel); a tree has
        # < len(ball) edges and cannot host a 2-connected subgraph.
        twice_edges = 0
        degs = []
        for u in ball:
            d = 0
            for w in adj[u]:
                if mask[w]:
                    d += 1
            degs.append(d)
            twice_edges += d
        for u in ball:
            mask[u] = 0
        if twice_edges < 2 * len(ball):
            continue  # the ball is a tree: no 2-connected subgraph
        _select_from_core(state, v, ball, degs)
    if allowed is not None:
        for v in nodes:
            allowed[v] = 0
    return detection


class _DetectState:
    """Per-sweep state (dedup, adoption) over a reusable :class:`DCCScratch`."""

    __slots__ = (
        "graph", "detection", "selected_by", "shared", "mask", "scratch",
        "active_mask", "index_of", "core_blocks",
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
        self.index_of: dict[tuple[int, ...], int] = {}
        # Block decompositions per distinct (canonicalised) core: on
        # locally-tree-like graphs the nodes of one cycle cluster all
        # peel to the *same* core, so the Hopcroft–Tarjan walk and the
        # clique/odd-cycle verdicts run once per core, not once per node.
        self.core_blocks: dict[tuple[int, ...], list] = {}


def _select_from_core(
    state: _DetectState, v: int, members: list[int], degrees: list[int]
) -> None:
    """Peel ``members`` (with in-ball ``degrees``) to the 2-core and let
    ``v`` select its first qualifying block there.

    Every 2-connected block lives inside the 2-core of the ball, so peeling
    degree-<=1 nodes first shrinks the Hopcroft–Tarjan walk from the whole
    ball (~Δ^{r+1} nodes) to the usually-tiny cycle-carrying core; ``v``
    being peeled proves no block contains it.  The set of qualifying blocks
    is exactly the full-ball set, and this sequential peel computes the
    same (unique) 2-core as the batched sparse peel of
    :func:`_vectorized_ball_blocks` (both feed :func:`_select_blocks`);
    when a node lies in *several* qualifying blocks, the discovery order —
    hence which valid DCC it selects — can differ from the pre-peel
    implementation, whose DFS also walked the peeled pendant trees.  Any
    qualifying block is a correct selection per the paper's phase (1).
    """
    adj = state.graph.adj
    mask = state.mask
    deg = state.scratch[0]  # shares the blocks_through disc scratch (zeroed)
    stack = []
    for pos, u in enumerate(members):
        mask[u] = 1
        d = degrees[pos]
        deg[u] = d
        if d <= 1:
            stack.append(u)
    alive = len(members)
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
    if alive < 4 or not mask[v]:
        for u in members:
            mask[u] = 0
            deg[u] = 0
        return
    core = [u for u in members if mask[u]]
    cycle = all(deg[u] == 2 for u in core)
    for u in members:
        deg[u] = 0
    _select_blocks(state, v, core, mask_set=True, cycle=cycle)


def _select_blocks(
    state: _DetectState, v: int, core: list[int], mask_set: bool, cycle: bool
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
    ``mask_set`` says whether ``state.mask`` already has the core bits
    set (the sequential peel leaves it that way); the mask is always
    clear on return.
    """
    graph = state.graph
    mask = state.mask
    key = tuple(sorted(core))
    cached = state.core_blocks.get(key)
    if cached is None:
        if cycle:
            cached = [(set(key), key)] if len(key) % 2 == 0 else []
        else:
            if not mask_set:
                for u in core:
                    mask[u] = 1
                mask_set = True
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
        state.core_blocks[key] = cached
    if mask_set:
        for u in core:
            mask[u] = 0
    chosen: tuple[int, ...] | None = None
    for block_set, block in cached:
        if v in block_set:
            chosen = block
            break
    if chosen is None:
        return
    detection = state.detection
    dcc_id = state.index_of.get(chosen)
    if dcc_id is None:
        dcc_id = len(detection.dccs)
        detection.dccs.append(chosen)
        state.index_of[chosen] = dcc_id
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
    adj = graph.adj
    for v, owners in enumerate(owners_of):
        if owners is None:
            continue
        for i, a in enumerate(owners):
            for b in owners[i + 1:]:
                conflicts[a].add(b)
                conflicts[b].add(a)
        for u in adj[v]:
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
