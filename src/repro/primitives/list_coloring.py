"""(deg+1)-list coloring engines (Theorems 18 and 19 of the paper).

Every layer-coloring step of the paper ("color layer B_i / C_i / D_i while
respecting already-colored neighbours") is a (deg+1)-list coloring
instance: each node's list is {1..Δ} minus the colors of its already
colored neighbours, and having an uncolored neighbour in the next layer
guarantees |L(v)| >= deg(v)+1 within the layer.

Lists are therefore *implicit* here: callers pass the global (partial)
color array and the target node set; available colors are recomputed from
the live neighbourhood each time.  Three engines:

* :func:`list_coloring_random` — iterated random trials; every uncolored
  node proposes a uniformly random available color, conflicting proposals
  are dropped.  O(log n) iterations w.h.p.  This is the engine inside the
  Panconesi–Srinivasan baseline (its O(log n)-per-layer cost is what the
  paper improves on).
* :func:`list_coloring_hybrid` — the [Gha16] / Theorem 19 shape: O(log Δ)
  + O(1) trial rounds, then the (w.h.p. tiny) leftover components are
  finished by gathering, charging the max component cost (components are
  disjoint and finish concurrently in LOCAL).
* :func:`list_coloring_deterministic` — the Theorem 18 substitute: iterate
  the color classes of a proper O(Δ²) base coloring; each class is an
  independent set, so all its nodes can greedily commit simultaneously.
  Exactly ``palette`` rounds, independent of n.  (The paper's
  O(√Δ log Δ log*Δ) algorithm [FHK16+BEG17] is a major standalone project;
  the substitute keeps what the layering technique needs from it: a
  deterministic per-layer cost that does not depend on n.)

All engines mutate ``colors`` in place and validate the deg+1 precondition
in ``strict`` mode.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger

__all__ = [
    "ListColoringStats",
    "available_colors",
    "list_coloring_random",
    "list_coloring_hybrid",
    "list_coloring_deterministic",
    "greedy_color_sequential",
]


@dataclass
class ListColoringStats:
    """Execution statistics of a list-coloring call.

    ``iterations`` counts trial/class rounds; ``gather_rounds`` is the cost
    of the component-gathering finisher (hybrid engine only);
    ``leftover_after_trials`` is how many nodes the trials left uncolored.
    """

    iterations: int = 0
    gather_rounds: int = 0
    leftover_after_trials: int = 0


def available_colors(
    graph: Graph, colors: list[int], v: int, max_colors: int
) -> list[int]:
    """Colors in 1..max_colors not used by any colored neighbour of v."""
    taken = {colors[u] for u in graph.adj[v]}
    return [c for c in range(1, max_colors + 1) if c not in taken]


def _check_deg_plus_one(
    graph: Graph, colors: list[int], targets: set[int], max_colors: int
) -> None:
    """Strict-mode precondition: every target has more available colors
    than uncolored target neighbours (the deg+1 property on the induced
    instance)."""
    for v in targets:
        if colors[v] != UNCOLORED:
            continue
        uncolored_neighbors = sum(
            1 for u in graph.adj[v] if u in targets and colors[u] == UNCOLORED
        )
        if len(available_colors(graph, colors, v, max_colors)) < uncolored_neighbors + 1:
            raise AlgorithmContractError(
                f"node {v} violates the deg+1 list property: "
                f"{len(available_colors(graph, colors, v, max_colors))} colors for "
                f"{uncolored_neighbors} uncolored neighbours"
            )


def list_coloring_random(
    graph: Graph,
    colors: list[int],
    targets: set[int],
    max_colors: int,
    ledger: RoundLedger | None = None,
    rng: random.Random | None = None,
    max_iterations: int | None = None,
    strict: bool = False,
) -> ListColoringStats:
    """Randomized trials until every target is colored (or the cap hits).

    One iteration = one synchronous round: propose, compare with
    neighbours, commit conflict-free proposals.  All of a round's
    randomness comes from a single ``rng.randbytes`` draw (one 64-bit key
    per live node, in ascending node order); node ``v`` proposes its
    ``key % |options|``-th smallest available color.  The round itself
    runs vectorized over the CSR buffers when numpy is available, with a
    bit-identical pure-Python fallback — both consume the same entropy
    and commit the same colors.  Returns statistics; any nodes still
    uncolored after ``max_iterations`` are simply left uncolored for the
    caller (used by the hybrid engine).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    if strict:
        _check_deg_plus_one(graph, colors, targets, max_colors)
    stats = ListColoringStats()
    uncolored = sorted(v for v in targets if colors[v] == UNCOLORED)
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy-free environments
        np = None
    state = None
    while uncolored:
        if max_iterations is not None and stats.iterations >= max_iterations:
            break
        stats.iterations += 1
        ledger.charge(1)
        buf = rng.randbytes(8 * len(uncolored))
        if np is not None and len(uncolored) >= 64:
            if state is None:
                state = _VectorRoundState(graph, colors, np)
            uncolored = state.run_round(uncolored, buf, max_colors)
        else:
            uncolored = _python_trial_round(
                graph, colors, uncolored, buf, max_colors
            )
    stats.leftover_after_trials = len(uncolored)
    return stats


def _python_trial_round(
    graph: Graph,
    colors: list[int],
    uncolored: list[int],
    buf: bytes,
    max_colors: int,
) -> list[int]:
    """One propose/compare/commit round, pure Python.

    Returns the still-uncolored nodes (ascending).  Must stay
    bit-identical to :meth:`_VectorRoundState.run_round`.
    """
    adj = graph.adj
    proposals: dict[int, int] = {}
    for pos, v in enumerate(uncolored):
        # Inline available_colors: this is the innermost loop of every
        # randomized layer-coloring phase.
        taken = {colors[u] for u in adj[v]}
        options = [c for c in range(1, max_colors + 1) if c not in taken]
        if not options:
            raise InfeasibleListColoringError(
                f"node {v} has no available color (caller violated deg+1)"
            )
        key = int.from_bytes(buf[8 * pos : 8 * pos + 8], "little")
        proposals[v] = options[key % len(options)]
    leftover = []
    for v in uncolored:
        mine = proposals[v]
        if all(proposals.get(u) != mine for u in adj[v]):
            colors[v] = mine
        else:
            leftover.append(v)
    return leftover


class _VectorRoundState:
    """Per-call scratch of the vectorized trial rounds.

    Keeps a numpy mirror of the color array (updated incrementally as
    rounds commit) and a full-length proposal array, so each round only
    does O(volume of the live set) work.
    """

    __slots__ = ("np", "graph", "colors", "offsets", "indices", "colors_np", "props")

    def __init__(self, graph: Graph, colors: list[int], np):
        self.np = np
        self.graph = graph
        self.colors = colors
        offsets, indices = graph.csr()
        self.offsets = np.frombuffer(offsets, dtype=np.int32)
        self.indices = np.frombuffer(indices, dtype=np.int32)
        self.colors_np = np.array(colors, dtype=np.int64)
        self.props = np.zeros(graph.n, dtype=np.int64)

    def run_round(
        self, uncolored: list[int], buf: bytes, max_colors: int
    ) -> list[int]:
        """Numpy twin of :func:`_python_trial_round` (bit-identical).

        The proposal phase works on the (live × palette) availability
        matrix in row chunks bounded by a cell budget, so peak scratch
        stays O(budget) however large the palette — the per-node Python
        loop this replaces only ever needed O(Δ) scratch, and a huge-Δ
        layer must not trade that for gigabyte temporaries.
        """
        np = self.np
        live = np.asarray(uncolored, dtype=np.int64)
        keys = np.frombuffer(buf, dtype="<u8")
        chosen = np.empty(len(live), dtype=np.int64)
        chunk = max(1, 4_000_000 // (max_colors + 1))
        for lo in range(0, len(live), chunk):
            hi = min(len(live), lo + chunk)
            self._propose(live[lo:hi], keys[lo:hi], max_colors, chosen[lo:hi])
        self.props[live] = chosen
        # Conflict: any neighbour proposing the same color (non-proposers
        # hold 0, which never equals a 1-based proposal).
        nbrs, lens, bounds = self._neighbour_rows(live)
        same = np.concatenate(
            ([0], np.cumsum(self.props[nbrs] == np.repeat(chosen, lens)))
        )
        conflicted = (same[bounds[1:]] - same[bounds[:-1]]) > 0
        committed = live[~conflicted]
        committed_colors = chosen[~conflicted]
        self.props[live] = 0
        self.colors_np[committed] = committed_colors
        colors = self.colors
        for v, c in zip(committed.tolist(), committed_colors.tolist()):
            colors[v] = c
        return live[conflicted].tolist()

    def _neighbour_rows(self, live):
        """Concatenated CSR neighbour rows of ``live`` plus row geometry."""
        np = self.np
        starts = self.offsets[live]
        lens = (self.offsets[live + 1] - starts).astype(np.int64)
        bounds = np.concatenate(([0], np.cumsum(lens)))
        flat = (
            np.arange(int(bounds[-1]), dtype=np.int64)
            - np.repeat(bounds[:-1], lens)
            + np.repeat(starts.astype(np.int64), lens)
        )
        return self.indices[flat].astype(np.int64), lens, bounds

    def _propose(self, live, keys, max_colors: int, out) -> None:
        """Fill ``out`` with each live node's proposed color."""
        np = self.np
        nbrs, lens, _ = self._neighbour_rows(live)
        rows = np.repeat(np.arange(len(live), dtype=np.int64), lens)
        # forbidden[i, c]: some neighbour of live[i] wears color c
        # (column 0 soaks up UNCOLORED and out-of-palette neighbours —
        # colors beyond max_colors exclude nothing, as in the fallback).
        forbidden = np.zeros((len(live), max_colors + 1), dtype=bool)
        ncolors = self.colors_np[nbrs]
        forbidden[rows, np.where(ncolors > max_colors, 0, ncolors)] = True
        avail = ~forbidden[:, 1:]
        counts = avail.sum(axis=1)
        if not counts.all():
            v = int(live[int(np.argmin(counts != 0))])
            raise InfeasibleListColoringError(
                f"node {v} has no available color (caller violated deg+1)"
            )
        picks = (keys % counts.astype(np.uint64)).astype(np.int32)
        # Proposal = the picks[i]-th smallest available color: the column
        # where the running count of available colors first hits picks+1.
        rank = np.cumsum(avail, axis=1, dtype=np.int32)
        out[:] = np.argmax(avail & (rank == (picks + 1)[:, None]), axis=1) + 1


def list_coloring_hybrid(
    graph: Graph,
    colors: list[int],
    targets: set[int],
    max_colors: int,
    ledger: RoundLedger | None = None,
    rng: random.Random | None = None,
    trial_budget: int | None = None,
    strict: bool = False,
) -> ListColoringStats:
    """Theorem 19-shaped engine: O(log Δ) trials, then gather the leftovers.

    After ``trial_budget = 2·⌈log₂(Δ+1)⌉ + 4`` trial rounds (default) the
    uncolored remainder shatters into small components w.h.p.; each
    component is finished by leader-gathering (greedy works in any order
    thanks to deg+1 lists).  Components are disjoint, so their finishing
    costs are charged as a max, not a sum.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    delta = max(1, graph.max_degree())
    if trial_budget is None:
        trial_budget = 2 * math.ceil(math.log2(delta + 1)) + 4
    stats = list_coloring_random(
        graph, colors, targets, max_colors, ledger, rng,
        max_iterations=trial_budget, strict=strict,
    )
    leftovers = [v for v in targets if colors[v] == UNCOLORED]
    stats.leftover_after_trials = len(leftovers)
    if leftovers:
        stats.gather_rounds = _finish_by_gathering(
            graph, colors, leftovers, max_colors, ledger
        )
    return stats


def _finish_by_gathering(
    graph: Graph,
    colors: list[int],
    leftovers: list[int],
    max_colors: int,
    ledger: RoundLedger,
) -> int:
    """Solve each uncolored component by gathering it at its min-id leader.

    Rounds: 2·(component radius) + 1 per component, charged as the max over
    components (they run concurrently).  Greedy in any order is always
    feasible because the instance is deg+1 (see module docstring).
    """
    leftover_set = set(leftovers)
    components = _uncolored_components(graph, leftover_set)
    costs = []
    for component in components:
        radius = _component_radius(graph, component, leftover_set)
        costs.append(2 * radius + 1)
        greedy_color_sequential(graph, colors, component, max_colors)
    ledger.charge_max(costs)
    return max(costs, default=0)


def _uncolored_components(graph: Graph, member_set: set[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by ``member_set``."""
    seen: set[int] = set()
    components = []
    for start in member_set:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        component = [start]
        while stack:
            u = stack.pop()
            for w in graph.adj[u]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
                    component.append(w)
        components.append(component)
    return components


def _component_radius(graph: Graph, component: list[int], member_set: set[int]) -> int:
    """Eccentricity of the min-id leader within the component."""
    leader = min(component)
    dist = bfs_distances(graph, [leader], allowed=member_set)
    return max(dist[v] for v in component)


def list_coloring_deterministic(
    graph: Graph,
    colors: list[int],
    targets: set[int],
    max_colors: int,
    base_colors: list[int],
    palette: int,
    ledger: RoundLedger | None = None,
    strict: bool = False,
) -> ListColoringStats:
    """Deterministic engine: iterate base-coloring color classes.

    Round j: every uncolored target whose base color is j picks its
    smallest available color; base color classes are independent sets, so
    simultaneous commits never conflict.  Exactly ``palette`` rounds.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    if strict:
        _check_deg_plus_one(graph, colors, targets, max_colors)
    stats = ListColoringStats()
    pending = [v for v in targets if colors[v] == UNCOLORED]
    by_class: dict[int, list[int]] = {}
    for v in pending:
        by_class.setdefault(base_colors[v], []).append(v)
    for color_class in range(palette):
        stats.iterations += 1
        ledger.charge(1)
        for v in by_class.get(color_class, ()):
            options = available_colors(graph, colors, v, max_colors)
            if not options:
                raise InfeasibleListColoringError(
                    f"node {v} has no available color (caller violated deg+1)"
                )
            colors[v] = options[0]
    return stats


def greedy_color_sequential(
    graph: Graph,
    colors: list[int],
    nodes: list[int],
    max_colors: int,
    order: list[int] | None = None,
) -> None:
    """Centralized greedy over ``nodes`` (any order is feasible for deg+1
    instances); the work-horse inside every gathering-based finisher."""
    sequence = order if order is not None else sorted(nodes)
    for v in sequence:
        if colors[v] != UNCOLORED:
            continue
        options = available_colors(graph, colors, v, max_colors)
        if not options:
            raise InfeasibleListColoringError(
                f"node {v} has no available color in greedy finisher"
            )
        colors[v] = options[0]
