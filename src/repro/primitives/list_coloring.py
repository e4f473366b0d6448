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

The inner loops (the class sweep and each trial round) run in the native
kernel, ``repro/kernel.c`` loaded by :mod:`repro.native`, on an int32
mirror of ``colors`` (:class:`ColorWorkspace`); their pure-Python twins,
:func:`_class_sweep_python` and :func:`_python_trial_round`, run when no
compiler is available and are pinned bit-identical to it: same colors,
same ledger charges, same rng draws.
"""

from __future__ import annotations

import copy
import ctypes
import math
import random
from array import array
from collections.abc import Iterable, MutableSequence, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

from repro import native
from repro.errors import AlgorithmContractError, InfeasibleListColoringError
from repro.graphs.bfs import bfs_distances
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.native import address

__all__ = [
    "ColorWorkspace",
    "ListColoringStats",
    "available_colors",
    "first_available_color",
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
    graph: Graph, colors: Sequence[int], v: int, max_colors: int
) -> list[int]:
    """Colors in 1..max_colors not used by any colored neighbour of v."""
    taken = {colors[u] for u in graph.neighbors(v)}
    return [c for c in range(1, max_colors + 1) if c not in taken]


def first_available_color(
    graph: Graph, colors: Sequence[int], v: int, max_colors: int
) -> int:
    """The first entry of :func:`available_colors` without building the
    list, or ``UNCOLORED`` when every color in 1..max_colors is taken."""
    taken = {colors[u] for u in graph.neighbors(v)}
    color = 1
    while color in taken:
        color += 1
    return color if color <= max_colors else UNCOLORED


def _check_deg_plus_one(
    graph: Graph, colors: Sequence[int], targets: set[int], max_colors: int
) -> None:
    """Strict-mode precondition: every target has more available colors
    than uncolored target neighbours (the deg+1 property on the induced
    instance)."""
    for v in targets:
        if colors[v] != UNCOLORED:
            continue
        uncolored_neighbors = sum(
            1 for u in graph.neighbors(v) if u in targets and colors[u] == UNCOLORED
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
    targets: Iterable[int],
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
    ``key % |options|``-th smallest available color.  The round runs in
    the native kernel (``trial_round``) when it is loaded, else in its
    pure-Python twin; both consume the same entropy and commit the same
    colors.  Returns statistics; any nodes still uncolored after
    ``max_iterations`` are simply left uncolored for the caller (used by
    the hybrid engine).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng if rng is not None else random.Random(0)
    targets = list(targets)
    with ColorWorkspace(graph, colors, len(targets)) as work:
        return work.random(targets, max_colors, ledger, rng, max_iterations, strict)


def _python_trial_round(
    graph: Graph,
    colors: MutableSequence[int],
    uncolored: list[int],
    buf: bytes,
    max_colors: int,
) -> list[int]:
    """One propose/compare/commit round, pure Python.

    Returns the still-uncolored nodes (ascending).  Must stay
    bit-identical to ``trial_round`` in ``repro/kernel.c``.  It also
    runs beside a loaded kernel, on workspaces too small to mirror, so
    rows come from ``neighbors`` (no graph-wide ``adj`` build).
    """
    row = graph.neighbors
    proposals: dict[int, int] = {}
    for pos, v in enumerate(uncolored):
        # Inline available_colors: this is the innermost loop of every
        # randomized layer-coloring phase.
        taken = {colors[u] for u in row(v)}
        options = [c for c in range(1, max_colors + 1) if c not in taken]
        if not options:
            raise _no_color(v)
        key = int.from_bytes(buf[8 * pos : 8 * pos + 8], "little")
        proposals[v] = options[key % len(options)]
    leftover = []
    for v in uncolored:
        mine = proposals[v]
        if all(proposals.get(u) != mine for u in row(v)):
            colors[v] = mine
        else:
            leftover.append(v)
    return leftover


def _class_sweep_python(
    graph: Graph,
    colors: MutableSequence[int],
    layers: list[list[int]],
    max_colors: int,
    base_colors: Sequence[int],
    palette: int,
) -> None:
    """The class sweep over ``layers`` in order, pure Python: in each
    layer, the pending nodes (:func:`_pending`) take their first
    available color by base color class ascending, and in ascending node
    order within a class.  Must stay bit-identical to ``class_sweep`` in
    ``repro/kernel.c``."""
    for layer in layers:
        pending = _pending(colors, layer)
        for v in pending:
            if not 0 <= base_colors[v] < palette:
                raise _bad_base(v, base_colors[v], palette)
        for v in sorted(pending, key=base_colors.__getitem__):
            color = first_available_color(graph, colors, v, max_colors)
            if color == UNCOLORED:
                raise _no_color(v)
            colors[v] = color


def _pending(colors: Sequence[int], targets: Iterable[int]) -> list[int]:
    """The uncolored targets, ascending and once each (the twin of
    ``pending_nodes`` in ``repro/kernel.c``)."""
    return sorted({v for v in targets if colors[v] == UNCOLORED})


def _no_color(v: int) -> InfeasibleListColoringError:
    return InfeasibleListColoringError(
        f"node {v} has no available color (caller violated deg+1)"
    )


def _out_of_range(component: int, n: int) -> IndexError:
    return IndexError(f"component {component} holds a node out of range for n={n}")


def _bad_base(v: int, base: int, palette: int) -> AlgorithmContractError:
    return AlgorithmContractError(
        f"node {v} has base color {base}, outside the base palette [0, {palette})"
    )


# The kernel works on an int32 mirror of the whole color list, copied in
# and written back once per workspace (O(n) each), while a twin costs
# O(volume of the targets); a workspace over fewer than n / 64 targets
# (one small phase-6 component, say) keeps to the twins.
_MIRROR_SHARE = 64
_KERNELS = ("class_sweep", "pending_nodes", "trial_round", "degree_list_surplus")


class ColorWorkspace:
    """The colors a run of (deg+1)-list engine calls reads and writes.

    When the native kernel is loaded and the run has targets enough to
    pay for it, :attr:`view` is an int32 mirror of the caller's
    ``colors``: the kernel updates it in place, and leaving the ``with``
    block copies it back, however the run ends, so ``colors`` is then
    what the twins would have left.  Otherwise :attr:`view` is ``colors``
    itself.  The twins work on :attr:`view` too (the hybrid engine's
    gathering, a base coloring the kernel cannot take), so one run may
    mix the two.  Both give identical colors, ledger charges and rng
    consumption.

    :func:`repro.core.layering.color_layers_in_reverse` opens one
    workspace per phase, so a phase pays for one mirror and one
    write-back; the randomized pipeline's phase (8) opens one that phase
    (9) closes, held in the pipeline state in between.  Each engine function below is a one-call workspace.
    """

    def __init__(self, graph: Graph, colors: list[int], target_count: int):
        self.graph = graph
        self.colors = colors
        self.view: MutableSequence[int] = colors
        self._kernels = None
        kernels = {name: native.kernel(name) for name in _KERNELS}
        if None in kernels.values() or target_count * _MIRROR_SHARE < graph.n:
            return
        if len(colors) != graph.n:
            return
        try:
            self.view = array("i", colors)
        except OverflowError:  # a color beyond int32: the twins take it
            return
        self._kernels = kernels
        self._csr = graph.csr()
        self._worn = array("i", bytes(4 * max(1, graph.max_degree())))
        self._props = array("i", bytes(4 * graph.n))

    def __enter__(self) -> "ColorWorkspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __deepcopy__(self, memo: dict) -> "ColorWorkspace":
        """A workspace over a copy of ``colors`` and of the mirror (a saved
        pipeline state holds one); graph and kernel bindings are shared."""
        twin = copy.copy(self)
        twin.colors = twin.view = copy.deepcopy(self.colors, memo)
        if self.view is not self.colors:
            twin.view, twin._worn, twin._props = map(copy.copy, (self.view, self._worn, self._props))
        return twin

    def close(self) -> None:
        """Copy the mirror back to ``colors``; from then on the
        workspace works on ``colors`` itself, through the twins."""
        if self.view is not self.colors:
            self.colors[:] = self.view.tolist()
            self.view = self.colors
            self._kernels = None

    def degree_list(self, components: list[list[int]], max_colors: int) -> list[int]:
        """Color ``components`` in order, each as one degree-list
        instance against the colors around it
        (:func:`repro.core.degree_choosable.color_against_outside`); a
        component sees the colors of the ones before it.

        The kernel (``degree_list_surplus``) colors every component in
        the surplus case and hands back the first one it does not color;
        the twin colors that one on :attr:`view` and the kernel resumes
        after it.  Returns the indices of the components the twin colored
        (all of them without the kernel).  A node outside ``0..n-1``
        raises ``IndexError`` before anything is written.
        """
        from repro.core.degree_choosable import color_against_outside

        n = self.graph.n
        members = None
        if self._kernels is not None:
            try:
                members = array("i", chain.from_iterable(components))
            except OverflowError:  # a node beyond int32: the twin's check names it
                pass
        if members is None:
            for i, component in enumerate(components):
                if not all(0 <= v < n for v in component):
                    raise _out_of_range(i, n)
            for component in components:
                color_against_outside(self.graph, self.view, component, max_colors)
            return list(range(len(components)))
        ends = array("i", accumulate(map(len, components)))
        work = array("i", bytes(8 * max(map(len, components), default=0)))
        offsets, indices = self._csr
        handed_back: list[int] = []
        start = 0
        while start < len(components):
            stop = self._kernels["degree_list_surplus"](
                address(offsets), address(indices), n, address(self.view), max_colors,
                address(members), address(ends), len(components), start,
                address(self._props), address(work), address(self._worn),
            )
            if stop < 0:
                raise _out_of_range(-1 - stop, n)
            if stop == len(components):
                break
            color_against_outside(self.graph, self.view, components[stop], max_colors)
            handed_back.append(stop)
            start = stop + 1
        return handed_back

    def random(
        self,
        targets: list[int],
        max_colors: int,
        ledger: RoundLedger,
        rng: random.Random,
        max_iterations: int | None = None,
        strict: bool = False,
    ) -> ListColoringStats:
        """:func:`list_coloring_random` on this workspace."""
        if strict:
            _check_deg_plus_one(self.graph, self.view, set(targets), max_colors)
        stats = ListColoringStats()
        live = self._pending(targets)
        while live:
            if max_iterations is not None and stats.iterations >= max_iterations:
                break
            stats.iterations += 1
            ledger.charge(1)
            live = self._trial_round(live, rng.randbytes(8 * len(live)), max_colors)
        stats.leftover_after_trials = len(live)
        return stats

    def _pending(self, targets: list[int]) -> MutableSequence[int]:
        if self._kernels is None:
            return _pending(self.view, targets)
        live = array("i", targets)
        count = self._kernels["pending_nodes"](
            address(self.view), self.graph.n, address(live), len(live)
        )
        if count < 0:
            raise IndexError(f"target node out of range for n={self.graph.n}")
        del live[count:]
        return live

    def _trial_round(self, live, buf: bytes, max_colors: int) -> MutableSequence[int]:
        if self._kernels is None:
            return _python_trial_round(self.graph, self.view, live, buf, max_colors)
        offsets, indices = self._csr
        count = self._kernels["trial_round"](
            address(offsets), address(indices), address(self.view), max_colors,
            address(live), len(live), buf, address(self._props), address(self._worn),
        )
        if count < 0:
            raise _no_color(live[-1 - count])
        del live[count:]
        return live

    def hybrid(
        self,
        targets: list[int],
        max_colors: int,
        ledger: RoundLedger,
        rng: random.Random,
        trial_budget: int | None = None,
        strict: bool = False,
    ) -> ListColoringStats:
        """:func:`list_coloring_hybrid` on this workspace."""
        if trial_budget is None:
            delta = max(1, self.graph.max_degree())
            trial_budget = 2 * math.ceil(math.log2(delta + 1)) + 4
        stats = self.random(targets, max_colors, ledger, rng, trial_budget, strict)
        if stats.leftover_after_trials:
            leftovers = [v for v in targets if self.view[v] == UNCOLORED]
            stats.gather_rounds = _finish_by_gathering(
                self.graph, self.view, leftovers, max_colors, ledger
            )
        return stats

    def deterministic(
        self,
        layers: list[list[int]],
        max_colors: int,
        base_colors: Sequence[int],
        palette: int,
        ledger: RoundLedger,
        strict: bool = False,
    ) -> None:
        """The class sweep over ``layers`` in order, ``palette`` rounds
        each: one kernel call for all of them, or one per layer when
        ``strict`` checks each layer's deg+1 property before its turn."""
        for run in ([layer] for layer in layers) if strict else [layers]:
            if strict:
                _check_deg_plus_one(self.graph, self.view, set(run[0]), max_colors)
            if palette * len(run):
                ledger.charge(palette * len(run))
            self._sweep(run, max_colors, base_colors, palette)

    def _sweep(self, layers, max_colors, base_colors, palette) -> None:
        n = self.graph.n
        try:
            base = array("i", base_colors) if self._kernels is not None else None
        except OverflowError:  # a base color beyond int32: the twin takes it
            base = None
        if base is None or len(base) < n:
            _class_sweep_python(
                self.graph, self.view, layers, max_colors, base_colors, palette
            )
            return
        nodes = array("i", chain.from_iterable(layers))
        ends = array("i", accumulate(len(layer) for layer in layers))
        order = array("Q", bytes(8 * len(nodes)))
        offsets, indices = self._csr
        failure = ctypes.c_int()
        stop = self._kernels["class_sweep"](
            address(offsets), address(indices), n, address(self.view), max_colors,
            address(base), palette, address(nodes), address(ends), len(layers),
            address(order), address(self._worn), ctypes.byref(failure),
        )
        if stop < 0:
            return
        if failure.value == 1:
            raise _bad_base(stop, base_colors[stop], palette)
        if failure.value == 2:
            raise _no_color(stop)
        raise IndexError(f"layer {stop} holds a node out of range for n={n}")


def list_coloring_hybrid(
    graph: Graph,
    colors: list[int],
    targets: Iterable[int],
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
    targets = list(targets)
    with ColorWorkspace(graph, colors, len(targets)) as work:
        return work.hybrid(targets, max_colors, ledger, rng, trial_budget, strict)


def _finish_by_gathering(
    graph: Graph,
    colors: MutableSequence[int],
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
            for w in graph.neighbors(u):
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
    targets: Iterable[int],
    max_colors: int,
    base_colors: Sequence[int],
    palette: int,
    ledger: RoundLedger | None = None,
    strict: bool = False,
) -> ListColoringStats:
    """Deterministic engine: iterate base-coloring color classes.

    Round j: every uncolored target whose base color is j picks its
    smallest available color (in ascending node order); base color
    classes are independent sets, so simultaneous commits never conflict.
    Exactly ``palette`` rounds.  A target whose base color lies outside
    ``[0, palette)`` would never get a turn: it raises
    :class:`AlgorithmContractError` before any of them is colored.  Runs
    in the native kernel (``class_sweep``) when it is loaded, else in its
    pure-Python twin, with identical output.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    targets = list(targets)
    with ColorWorkspace(graph, colors, len(targets)) as work:
        work.deterministic([targets], max_colors, base_colors, palette, ledger, strict)
    return ListColoringStats(iterations=palette)


def greedy_color_sequential(
    graph: Graph,
    colors: MutableSequence[int],
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
        color = first_available_color(graph, colors, v, max_colors)
        if color == UNCOLORED:
            raise InfeasibleListColoringError(
                f"node {v} has no available color in greedy finisher"
            )
        colors[v] = color
