"""Incremental Δ-coloring under edge updates (graph streams).

The paper's Theorem 5 machinery (:func:`repro.core.brooks.
fix_uncolored_node`) completes a coloring with one uncolored node by
recoloring only an O(log n) neighbourhood — exactly the primitive needed
to keep a coloring valid under edge insertions and deletions instead of
re-solving from scratch.  :class:`IncrementalColoring` packages it as a
stateful engine:

* it holds the current graph plus a valid coloring (typically seeded
  from a :class:`repro.api.ColoringResult`), the coloring in a
  journaling :class:`repro.core.colorstore.ColorStore` (an
  ``array('i')``, O(touched) diffing — no per-op O(n) list copies);
* ``insert_edge`` / ``delete_edge`` / ``batch_update`` apply a delta,
  detect the conflicts the delta created, uncolor a *minimal* hitting
  set of conflict endpoints, and repair each through the ladder

      1. **greedy** — take a free color at the uncolored node (O(Δ));
      2. **brooks** — the Theorem 5 token walk
         (:func:`fix_uncolored_node`), O(log n) locality;
      3. **resolve** — a full :func:`repro.api.solve` of the new graph,
         reached only when Δ changed (the Δ-coloring contract itself
         moved) or the local repair stalled (e.g. the update carved out
         a clique component, which no Δ-palette repair can fix).

Deletions never create conflicts (removing constraints preserves
properness), so they are O(delta-application) unless they lower Δ —
a *smaller* palette contract — which forces a resolve.

**One update path.**  The engine adopts its graph into a
:class:`repro.graphs.dynamic.DynamicGraph` at construction — one copy of
the CSR indices, every row at exact size, well under a millisecond at
n=32768 — and applies every delta **in place**, O(Δ) per touched row.
The caller's graph is never mutated.  ``engine.graph`` returns an
immutable :meth:`~repro.graphs.dynamic.DynamicGraph.snapshot`: the
caller's own graph until the first accepted op, afterwards a compacted
copy cached until the next mutation (O(n + m) if read every op; use
``last_dirty_region`` for per-op monitoring).
Rejected and failed ops roll back both structures exactly: the graph via
the delta undo log (which also restores the cached snapshot, so
``engine.graph`` keeps its identity), the colors via the store journal.
The ``backend`` constructor argument is accepted for compatibility and
ignored.

Every op returns an :class:`UpdateOutcome` with repair-locality stats
(`recolored_count`, `max_repair_radius`, charged LOCAL `rounds`, the
per-mode counts), and the engine accumulates lifetime totals in
:attr:`IncrementalColoring.totals` — the numbers
``benchmarks/bench_s2_incremental.py`` reports against fresh-solve
latency.

Rejected operations (typed, state unchanged):

* inserting an edge that is already present — or twice in one batch —
  :class:`repro.errors.EdgeAlreadyPresentError`;
* deleting an edge that is not present — or twice in one batch —
  :class:`repro.errors.EdgeNotPresentError`;
* one edge appearing in both ``added`` and ``removed`` of a batch —
  :class:`repro.errors.ConflictingUpdateError`;
* any update that would change Δ when the engine was built with
  ``allow_resolve=False`` — :class:`repro.errors.DeltaChangeError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import (
    ConflictingUpdateError,
    DeltaChangeError,
    EdgeAlreadyPresentError,
    EdgeNotPresentError,
    GraphError,
    ReproError,
)
from repro.core.brooks import fix_uncolored_node
from repro.core.colorstore import ColorStore
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.graph import Graph
from repro.graphs.validation import (
    UNCOLORED,
    validate_coloring,
    validate_coloring_region,
)

__all__ = ["IncrementalColoring", "UpdateOutcome", "check_delta"]

#: Batch size above which membership probes switch from per-edge row
#: scans to touched-row sets built once.
MEMBERSHIP_SET_THRESHOLD = 3


@dataclass
class UpdateOutcome:
    """What one ``insert_edge`` / ``delete_edge`` / ``batch_update`` did.

    ``repair_modes`` counts repaired nodes per ladder rung (``greedy``,
    plus the :class:`repro.core.brooks.BrooksFixResult` modes for token
    walks); ``max_repair_radius`` is the farthest distance from a repair
    site at which a color changed — the locality Theorem 5 bounds by
    2·log_{Δ-1} n; ``rounds`` is the charged LOCAL cost of the repairs.
    ``full_resolve`` marks the ladder's last rung: the whole coloring was
    recomputed and per-node repair stats do not apply.
    """

    op: str
    edges_added: int = 0
    edges_removed: int = 0
    conflicts: int = 0
    recolored_count: int = 0
    repair_modes: dict[str, int] = field(default_factory=dict)
    max_repair_radius: int = 0
    rounds: int = 0
    full_resolve: bool = False
    resolve_reason: str | None = None
    delta: int = 0
    palette: int = 0
    wall_time_s: float = 0.0
    rung_wall_s: dict[str, float] = field(default_factory=dict)

    def charge_rung_wall(self, rung: str, seconds: float) -> None:
        """Accumulate wall-clock seconds against a ladder rung
        (``greedy`` / ``token-walk`` / ``resolve``)."""
        self.rung_wall_s[rung] = self.rung_wall_s.get(rung, 0.0) + seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "conflicts": self.conflicts,
            "recolored_count": self.recolored_count,
            "repair_modes": dict(self.repair_modes),
            "max_repair_radius": self.max_repair_radius,
            "rounds": self.rounds,
            "full_resolve": self.full_resolve,
            "resolve_reason": self.resolve_reason,
            "delta": self.delta,
            "palette": self.palette,
            "wall_time_s": round(self.wall_time_s, 6),
            "rung_wall_s": {
                rung: round(seconds, 6)
                for rung, seconds in self.rung_wall_s.items()
            },
        }


class IncrementalColoring:
    """A valid coloring maintained under a stream of edge updates.

    Parameters
    ----------
    graph:
        The current instance (never mutated; the engine adopts it into
        an owned :class:`repro.graphs.dynamic.DynamicGraph`).
    colors:
        A valid coloring of ``graph`` with colors in ``1..palette``
        (validated at construction unless ``validate_seed=False``).
    palette:
        The palette bound the engine maintains (Δ for the paper's
        algorithms).
    algorithm:
        The registry name that produced the seed coloring; consulted for
        the ``supports_incremental`` capability flag — algorithms without
        it (per-component χ palettes) skip the repair ladder and resolve
        on every conflicting update.
    config:
        The :class:`repro.api.SolverConfig` used for full re-solves
        (default: ``algorithm="auto"`` with ``seed``).
    backend:
        Accepted for compatibility and ignored: there is one update path.
    allow_resolve:
        When False, updates that would need a full re-solve (Δ changes)
        raise :class:`repro.errors.DeltaChangeError` instead, leaving the
        engine unchanged.
    validate:
        Re-validate the coloring after every applied update.  Repaired
        updates check only the **dirty region** — the recolored nodes
        plus the endpoints of inserted edges — via
        :func:`repro.graphs.validation.validate_coloring_region`
        (O(vol(region)); sound because the pre-update coloring was valid
        and nothing outside the region changed); full re-solves still
        pay the full O(n + m) :func:`validate_coloring` pass.
    """

    def __init__(
        self,
        graph: Graph,
        colors: Iterable[int],
        palette: int | None = None,
        *,
        algorithm: str = "auto",
        config: "Any | None" = None,
        seed: int = 0,
        backend: str = "auto",
        allow_resolve: bool = True,
        validate: bool = False,
        validate_seed: bool = True,
    ):
        self._graph = DynamicGraph.from_graph(graph)
        self._colors = ColorStore(colors)
        self._delta = self._graph.max_degree()
        self.palette = palette if palette is not None else self._delta
        self.algorithm = algorithm
        self.seed = seed
        # The seed recorded on results *derived from* this engine's state
        # (may legitimately be None when the seeding result's was); the
        # engine's own ``seed`` stays an int for the re-solve config.
        self.result_seed: int | None = seed
        self.allow_resolve = allow_resolve
        self.validate = validate
        self._config = config
        self._last_dirty: list[int] | None = []
        self._supports_inc: tuple[str, bool] | None = None
        if validate_seed:
            validate_coloring(graph, self._colors.buffer, max_colors=self.palette or None)
        self.totals: dict[str, Any] = {
            "ops": 0,
            "edges_added": 0,
            "edges_removed": 0,
            "conflicts": 0,
            "recolored": 0,
            "full_resolves": 0,
            "repair_modes": {},
            "max_repair_radius": 0,
            "rounds": 0,
        }

    @classmethod
    def from_result(
        cls, graph: Graph, result: "Any", **kwargs: Any
    ) -> "IncrementalColoring":
        """Seed the engine from a :class:`repro.api.ColoringResult` of
        ``graph`` (the solve is trusted: no seed re-validation)."""
        kwargs.setdefault("validate_seed", False)
        kwargs.setdefault("seed", result.seed if result.seed is not None else 0)
        kwargs.setdefault("algorithm", result.algorithm)
        engine = cls(graph, result.colors, result.palette, **kwargs)
        engine.result_seed = result.seed
        return engine

    # -- views -------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The current graph: an immutable snapshot of the owned dynamic
        graph — the caller's graph until the first accepted op, then a
        compacted copy cached until the next mutation.  Rejected ops
        leave the same object in place."""
        return self._graph.snapshot()

    @property
    def colors(self) -> list[int]:
        """The current coloring (a plain-list copy; the engine owns its
        state)."""
        return self._colors.to_list()

    @property
    def delta(self) -> int:
        return self._delta

    @property
    def n(self) -> int:
        """Node count of the current graph, without snapshotting it
        (``engine.graph`` after a mutation is an O(n + m) compaction;
        the service's admission control only needs the size)."""
        return self._graph.n

    @property
    def num_edges(self) -> int:
        """Edge count of the current graph, snapshot-free (see :attr:`n`)."""
        return self._graph.num_edges

    def set_resolve_config(self, config: "Any | None") -> None:
        """Replace the :class:`repro.api.SolverConfig` used by the full
        re-solve rung.  Long-lived engines (the service's chain heads)
        serve many requests, each carrying its own config; the engine is
        keyed by a digest that covers the config, so updating it here
        keeps rung 3 consistent with what the caller asked for."""
        self._config = config

    @property
    def last_dirty_region(self) -> list[int] | None:
        """Nodes the last applied op may have affected (recolored nodes
        plus inserted-edge endpoints), or ``None`` after a full re-solve
        (every node is then suspect and only a full validation applies).
        """
        dirty = self._last_dirty
        return list(dirty) if dirty is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IncrementalColoring(n={self._graph.n}, m={self._graph.num_edges}, "
            f"Δ={self._delta}, palette={self.palette}, ops={self.totals['ops']})"
        )

    # -- operations --------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> UpdateOutcome:
        """Insert ``{u, v}``, repairing any conflict it creates."""
        return self._apply("insert", [(u, v)], [])

    def delete_edge(self, u: int, v: int) -> UpdateOutcome:
        """Delete ``{u, v}`` (never creates conflicts; may lower Δ)."""
        return self._apply("delete", [], [(u, v)])

    def batch_update(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> UpdateOutcome:
        """Apply a whole delta atomically: one graph transition, all
        conflicts detected against it, one repair pass."""
        return self._apply("batch", list(added), list(removed))

    # -- internals ---------------------------------------------------------

    def _apply(
        self,
        op: str,
        added: list[tuple[int, int]],
        removed: list[tuple[int, int]],
    ) -> UpdateOutcome:
        started = time.perf_counter()
        check_delta(self._graph, added, removed)
        outcome = UpdateOutcome(
            op=op, edges_added=len(added), edges_removed=len(removed)
        )
        dirty = self._apply_delta(added, removed, outcome)
        self._last_dirty = sorted(dirty) if dirty is not None else None
        outcome.delta = self._delta
        outcome.palette = self.palette
        if self.validate:
            if dirty is None:
                validate_coloring(
                    self._graph, self._colors.buffer, max_colors=self.palette or None
                )
            else:
                validate_coloring_region(
                    self._graph, self._colors, dirty,
                    max_colors=self.palette or None,
                )
        outcome.wall_time_s = time.perf_counter() - started
        self._accumulate(outcome)
        return outcome

    def _apply_delta(
        self,
        added: list[tuple[int, int]],
        removed: list[tuple[int, int]],
        outcome: UpdateOutcome,
    ) -> set[int] | None:
        """Delta in place on the owned :class:`DynamicGraph`: O(Δ) per
        touched row.  Failures after mutation undo the delta and roll
        back the color journal, so rejections stay exact (down to the
        identity of ``engine.graph``)."""
        dyn = self._graph
        store = self._colors
        new_delta = dyn.delta_after(added, removed)
        resolve_reason: str | None = None
        if self._delta_moved(new_delta):
            # Policed before mutation: an allow_resolve=False engine must
            # reject with its state untouched, no undo required.
            if not self.allow_resolve:
                raise DeltaChangeError(
                    f"update needs a full re-solve (delta "
                    f"{self._delta}->{new_delta}) but the engine was built "
                    "with allow_resolve=False"
                )
            resolve_reason = f"delta {self._delta}->{new_delta}"
            conflicts: list[tuple[int, int]] = []
        else:
            conflicts = [
                (u, v)
                for u, v in added
                if store[u] == store[v] and store[u] != UNCOLORED
            ]
            outcome.conflicts = len(conflicts)
            if conflicts and not self._spec_supports_incremental():
                resolve_reason = "algorithm-unsupported"
        undo = dyn.apply_delta(added, removed, record_undo=True, _validated=True)
        try:
            if resolve_reason is not None:
                self._resolve(outcome, reason=resolve_reason)
                return None
            dirty: set[int] | None = {v for edge in added for v in edge}
            if conflicts:
                uncolor = self._minimal_uncolor_set(conflicts, dyn)
                store.begin()
                try:
                    self._repair(dyn, store, uncolor, outcome)
                except ReproError:
                    store.rollback()
                    # Repair stalled: last rung of the ladder (raises
                    # DeltaChangeError under allow_resolve=False, which
                    # the outer handler turns into an exact rollback).
                    self._resolve(outcome, reason="repair-stalled")
                    return None
                changed = store.commit()
                outcome.recolored_count = len(changed)
                dirty.update(changed)
            self._delta = new_delta
            return dirty
        except ReproError:
            # Typed rejection after mutation: restore both structures.
            if store.in_transaction:
                store.rollback()
            dyn.undo_delta(undo)
            raise

    def _delta_moved(self, new_delta: int) -> bool:
        """Did the delta move the Δ-coloring contract itself?  A rise
        leaves the old colors proper but under-uses the new palette's
        guarantees, a fall makes the old palette illegal; and any palette
        below the new Δ voids the repair ladder's guarantees outright.
        Only a fresh solve restores the contract."""
        return (
            new_delta != self._delta and self.palette == self._delta
        ) or new_delta > self.palette

    def _spec_supports_incremental(self) -> bool:
        cached = self._supports_inc
        if cached is not None and cached[0] == self.algorithm:
            return cached[1]
        from repro.api.registry import get_algorithm

        try:
            flag = get_algorithm(self.algorithm).supports_incremental
        except ReproError:
            # Unknown (e.g. third-party unregistered) seed algorithm:
            # assume repairable — the resolve rung still backstops it.
            flag = True
        self._supports_inc = (self.algorithm, flag)
        return flag

    def _minimal_uncolor_set(
        self,
        conflicts: list[tuple[int, int]],
        graph: Graph,
    ) -> list[int]:
        """A small vertex set hitting every conflict edge.

        Greedy max-multiplicity vertex cover over the conflict edges: for
        single-edge updates this is one endpoint (preferring one with
        degree < palette, where a free color is guaranteed); for batches
        a shared endpoint of k conflicts is uncolored once instead of k
        times.
        """
        remaining = list(conflicts)
        uncolor: list[int] = []
        while remaining:
            multiplicity: dict[int, int] = {}
            for u, v in remaining:
                multiplicity[u] = multiplicity.get(u, 0) + 1
                multiplicity[v] = multiplicity.get(v, 0) + 1
            best = max(
                multiplicity,
                key=lambda x: (
                    multiplicity[x],
                    graph.degree(x) < self.palette,  # free color guaranteed
                    -x,
                ),
            )
            uncolor.append(best)
            remaining = [e for e in remaining if best not in e]
        return uncolor

    def _repair(
        self,
        graph: Graph,
        colors: "ColorStore",
        uncolor: list[int],
        outcome: UpdateOutcome,
    ) -> None:
        """Rungs 1–2 of the ladder for every uncolored node (mutates
        ``colors`` through item assignment only, so list-likes and
        :class:`ColorStore` both work; raises on stall, caller falls to
        rung 3).  Neighbour rows are read straight off the CSR buffers —
        touching ``graph.adj`` here would lazily materialise all O(n + m)
        adjacency lists on every fresh post-update graph."""
        for v in uncolor:
            colors[v] = UNCOLORED
        palette = self.palette
        for v in uncolor:
            rung_started = time.perf_counter()
            used = set()
            for w in graph.neighbors_csr(v):
                c = colors[w]
                if c != UNCOLORED:
                    used.add(c)
            free = next(
                (c for c in range(1, palette + 1) if c not in used), None
            )
            if free is not None:
                colors[v] = free
                outcome.repair_modes["greedy"] = (
                    outcome.repair_modes.get("greedy", 0) + 1
                )
                outcome.rounds += 1
                outcome.charge_rung_wall(
                    "greedy", time.perf_counter() - rung_started
                )
                continue
            fix = fix_uncolored_node(graph, colors, v, max_colors=palette)
            outcome.repair_modes[fix.mode] = (
                outcome.repair_modes.get(fix.mode, 0) + 1
            )
            outcome.max_repair_radius = max(outcome.max_repair_radius, fix.radius)
            outcome.rounds += fix.rounds
            outcome.charge_rung_wall(
                "token-walk", time.perf_counter() - rung_started
            )

    def _resolve(self, outcome: UpdateOutcome, reason: str) -> None:
        """Rung 3: full re-solve of the (already mutated) graph through
        the facade.

        The color store must hold the *pre-op* coloring (callers roll
        back partial repairs first) so the recolored count is a true
        pre/post diff.
        """
        if not self.allow_resolve:
            raise DeltaChangeError(
                f"update needs a full re-solve ({reason}) but the engine "
                "was built with allow_resolve=False"
            )
        from repro.api import SolverConfig, solve

        config = self._config
        if config is None:
            config = SolverConfig(algorithm="auto", seed=self.seed)
        rung_started = time.perf_counter()
        result = solve(self._graph.snapshot(), config)
        outcome.charge_rung_wall("resolve", time.perf_counter() - rung_started)
        outcome.full_resolve = True
        outcome.resolve_reason = reason
        outcome.rounds += result.rounds
        store = self._colors
        outcome.recolored_count = store.diff_count(result.colors)
        self.algorithm = result.algorithm
        self.palette = result.palette
        store.replace(result.colors)
        self._delta = self._graph.max_degree()

    def _accumulate(self, outcome: UpdateOutcome) -> None:
        totals = self.totals
        totals["ops"] += 1
        totals["edges_added"] += outcome.edges_added
        totals["edges_removed"] += outcome.edges_removed
        totals["conflicts"] += outcome.conflicts
        totals["recolored"] += outcome.recolored_count
        totals["full_resolves"] += outcome.full_resolve
        totals["rounds"] += outcome.rounds
        totals["max_repair_radius"] = max(
            totals["max_repair_radius"], outcome.max_repair_radius
        )
        for mode, count in outcome.repair_modes.items():
            totals["repair_modes"][mode] = (
                totals["repair_modes"].get(mode, 0) + count
            )


def check_delta(
    graph: Graph,
    added: list[tuple[int, int]],
    removed: list[tuple[int, int]],
) -> None:
    """The typed rejection contract of an edge delta against ``graph``.

    Presence and batch-consistency violations get typed errors
    (:class:`EdgeNotPresentError`, :class:`EdgeAlreadyPresentError`,
    :class:`ConflictingUpdateError`); out-of-range endpoints and
    self-loops among the added edges raise :class:`GraphError`.  The
    engine runs it before any mutation, and the service client runs it
    before its stale-parent fallback re-solve, so a bad delta raises the
    same error type on both paths.  For batches past a few edges,
    membership probes run against touched-row sets built once instead of
    re-scanning a neighbour row per edge.
    """
    n = graph.n
    if len(added) + len(removed) > MEMBERSHIP_SET_THRESHOLD:
        rows: dict[int, set[int]] = {}
        for u, v in added + removed:
            if 0 <= u < n and u not in rows:
                rows[u] = set(graph.neighbors_csr(u))

        def present(u: int, v: int) -> bool:
            return v in rows[u]
    else:

        def present(u: int, v: int) -> bool:
            return v in graph.neighbors_csr(u)

    # Batch self-consistency first: a batch that names the same key twice
    # is contradictory no matter what the graph holds, so the consistency
    # error must win over any presence error.
    removed_keys: set[tuple[int, int]] = set()
    for u, v in removed:
        key = (u, v) if u < v else (v, u)
        if key in removed_keys:
            raise EdgeNotPresentError(
                f"cannot delete edge ({u}, {v}): already deleted in this batch"
            )
        removed_keys.add(key)
    added_keys: set[tuple[int, int]] = set()
    for u, v in added:
        key = (u, v) if u < v else (v, u)
        if key in removed_keys:
            raise ConflictingUpdateError(
                f"edge ({u}, {v}) appears in both added and removed"
            )
        if key in added_keys:
            raise EdgeAlreadyPresentError(
                f"cannot insert edge ({u}, {v}): already present"
            )
        added_keys.add(key)
    # Then presence against the live graph.
    for u, v in removed:
        if not (0 <= u < n and 0 <= v < n) or not present(u, v):
            raise EdgeNotPresentError(f"cannot delete edge ({u}, {v}): not present")
    for u, v in added:
        if 0 <= u < n and 0 <= v < n and u != v and present(u, v):
            raise EdgeAlreadyPresentError(
                f"cannot insert edge ({u}, {v}): already present"
            )
    for u, v in added:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
