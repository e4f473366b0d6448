"""Updatable CSR: the one in-place edge-update path.

:class:`repro.graphs.graph.Graph` is immutable: its CSR buffers are
never written after construction, which is what lets the service cache
and fingerprint instances.  :class:`DynamicGraph` is the representation
every edge delta goes through — the incremental engine's streams and
:meth:`Graph.apply_updates` alike.  It keeps the CSR discipline (one
flat native-int data buffer, one start offset per row) but lets rows
move and grow so edges insert and delete **in place**:

* :meth:`DynamicGraph.from_graph` **adopts** a graph's CSR as-is: the
  data buffer is one copy of the indices, every row sits at exact size
  (no slack), and the graph itself stays the cached ``csr()`` /
  :meth:`~DynamicGraph.snapshot` until the first mutation — adopting an
  n=32768 graph costs well under a millisecond, so nothing needs a
  second update path;
* ``apply_delta(added, removed)`` mutates only the touched rows: an
  insert appends into the row's slack (amortized O(1)); a delete shifts
  the row left (O(deg), preserving neighbour order so downstream seeded
  algorithms see the same rows a from-scratch build would give);
* a row out of slack — every adopted row on its first insert — is
  **relocated** to the tail of the data buffer with power-of-two
  capacity, leaving a hole; when holes exceed a third of the buffer an
  amortized **compaction** rebuilds the storage with padded capacities
  (a relocation leaves ``old_cap`` holes but appends ``≥ 2·old_cap``
  fresh slots, so holes can approach but never reach half the buffer —
  one third is the reachable trigger);
* a degree histogram is maintained per op, so ``max_degree()`` — which
  the incremental engine consults on *every* update to police the
  Δ-coloring contract — is O(1) instead of O(n);
* ``apply_delta(..., record_undo=True)`` returns an undo token that
  restores the exact pre-delta rows (content, not layout) and the
  pre-delta cached snapshot, which is how the engine keeps its "typed
  rejections leave state untouched" promise — down to the identity of
  the graph it hands out — even for failures discovered after mutation.

``DynamicGraph`` subclasses :class:`Graph`, so everything written
against the immutable interface keeps working: ``csr()`` compacts the
rows into a classic ``(offsets, indices)`` pair on demand (cached until
the next mutation), ``adj`` / ``neighbors`` /
``neighbors_csr`` / ``has_edge`` / ``subgraph`` read through the live
rows, and :meth:`snapshot` emits an immutable :class:`Graph` sharing the
compacted buffers — safe to hand to caches and solvers because mutation
never writes into a compacted buffer, it only abandons it.  It pickles as
:class:`Graph` does (its compacted CSR buffers) and comes back adopted:
the same rows, at exact size.

Row-order contract (pinned by ``tests/test_dynamic_graph.py`` against a
naive list-of-rows model and from-scratch builds): a removal drops the
neighbour and keeps the rest of the row in order, an insertion appends;
removals apply before insertions within one delta.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable
from operator import sub

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["DynamicGraph", "DeltaUndo"]

#: Smallest capacity (slots) of a relocated or compacted row.
MIN_ROW_SLOTS = 4


def _row_capacity(deg: int, min_slots: int = MIN_ROW_SLOTS) -> int:
    """Power-of-two capacity with at least one free slot for ``deg`` edges."""
    need = deg + 1
    return max(min_slots, 1 << (need - 1).bit_length())


def _adopt_rows(offsets: array, n: int):
    """Row starts, row lengths and the degree histogram of a CSR offsets
    buffer."""
    bounds = offsets.tolist()
    lens = array("i", list(map(sub, bounds[1:], bounds)))
    return array("q", bounds[:n]), lens, dict(Counter(lens))


class DeltaUndo:
    """Opaque token restoring a :class:`DynamicGraph` to its pre-delta rows.

    Captures row *contents* (not storage positions): relocation or
    compaction between capture and restore is irrelevant, the logical
    graph comes back bit-identical.  The pre-delta cached snapshot rides
    along, so a rolled-back delta hands out the same graph object again.
    """

    __slots__ = ("rows", "num_edges", "deg_hist", "max_deg", "snapshot")

    def __init__(
        self,
        rows: list[tuple[int, array]],
        num_edges: int,
        deg_hist: dict[int, int],
        max_deg: int,
        snapshot: Graph | None,
    ):
        self.rows = rows
        self.num_edges = num_edges
        self.deg_hist = deg_hist
        self.max_deg = max_deg
        self.snapshot = snapshot


class DynamicGraph(Graph):
    """A simple undirected graph with in-place edge updates.

    Build one with :meth:`from_graph` (the usual route: adopt a solved
    immutable instance) or ``DynamicGraph(n, edges)``.  The mutating API
    is :meth:`apply_delta` / :meth:`insert_edge` / :meth:`delete_edge`;
    everything else is the read-only :class:`Graph` interface, answered
    from the live rows.
    """

    __slots__ = (
        "_starts",
        "_lens",
        "_caps",
        "_data",
        "_holes",
        "_deg_hist",
        "_dyn_max",
        "_snapshot",
        "relocations",
        "compactions",
        "_min_slots",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 min_slots: int = MIN_ROW_SLOTS):
        self._adopt(Graph(n, edges), min_slots)

    @classmethod
    def from_graph(cls, graph: Graph, *, min_slots: int = MIN_ROW_SLOTS) -> "DynamicGraph":
        """Adopt ``graph``'s CSR as-is: one copy of the indices buffer,
        every row at exact size, ``graph`` itself as the cached snapshot
        until the first mutation.  ``graph`` is never written to."""
        dyn = cls.__new__(cls)
        dyn._adopt(graph, min_slots)
        return dyn

    def _adopt_csr(self, n: int, offsets: array, indices: array, num_edges: int) -> None:
        """Unpickling: adopt the pickled (compacted) rows at exact size."""
        self._adopt(Graph._from_csr(n, offsets, indices, num_edges), MIN_ROW_SLOTS)

    def _adopt(self, graph: Graph, min_slots: int) -> None:
        graph = graph.snapshot() if isinstance(graph, DynamicGraph) else graph
        n = graph.n
        offsets, indices = graph.csr()
        starts, lens, hist = _adopt_rows(offsets, n)
        self.n = n
        self._num_edges = graph.num_edges
        self._min_slots = min_slots
        self._starts = starts
        self._lens = lens
        self._caps = lens[:]
        self._data = indices[:]
        self._holes = 0
        self.relocations = 0
        self.compactions = 0
        self._deg_hist = hist
        self._dyn_max = max(hist) if hist else 0
        # Graph base slots double as invalidatable caches here; until the
        # first mutation the adopted graph answers csr() and snapshot().
        self._offsets = offsets
        self._indices = indices
        self._adj = None
        self._adj_sets = None
        self._max_degree = None
        self._min_degree = None
        self._snapshot = graph

    # -- cache discipline --------------------------------------------------

    def _touch(self) -> None:
        """Invalidate every derived view after a mutation."""
        self._offsets = None
        self._indices = None
        self._adj = None
        self._adj_sets = None
        self._min_degree = None
        self._snapshot = None

    # -- read interface (overrides answering from live rows) --------------

    @property
    def adj(self) -> list[list[int]]:
        cached = self._adj
        if cached is None:
            data, starts, lens = self._data, self._starts, self._lens
            cached = [
                data[starts[v] : starts[v] + lens[v]].tolist()
                for v in range(self.n)
            ]
            self._adj = cached
        return cached

    def degree(self, v: int) -> int:
        return self._lens[v]

    def degrees(self) -> list[int]:
        return self._lens.tolist()

    def max_degree(self) -> int:
        """O(1): maintained through the degree histogram."""
        return self._dyn_max

    def min_degree(self) -> int:
        if self._min_degree is None:
            self._min_degree = min(self._lens) if self.n else 0
        return self._min_degree

    def neighbors_csr(self, v: int) -> memoryview:
        s = self._starts[v]
        return memoryview(self._data)[s : s + self._lens[v]]

    def csr(self) -> tuple[array, array]:
        """Compact the padded rows into classic CSR buffers (cached until
        the next mutation; never aliased by future mutations)."""
        if self._offsets is None:
            self._offsets, self._indices = self._compacted_csr()
        return self._offsets, self._indices

    def _compacted_csr(self) -> tuple[array, array]:
        n = self.n
        lens, starts, data = self._lens, self._starts, self._data
        offsets = array("i", bytes(4 * (n + 1)))
        total = 0
        for v in range(n):
            total += lens[v]
            offsets[v + 1] = total
        indices = array("i", bytes(4 * total))
        for v in range(n):
            deg = lens[v]
            if deg:
                s = starts[v]
                indices[offsets[v] : offsets[v] + deg] = data[s : s + deg]
        return offsets, indices

    def snapshot(self) -> Graph:
        """An immutable :class:`Graph` of the current state (cached until
        the next mutation; shares the compacted CSR buffers, which later
        mutations abandon rather than overwrite)."""
        if self._snapshot is None:
            offsets, indices = self.csr()
            graph = Graph._from_csr(self.n, offsets, indices, self._num_edges)
            graph._max_degree = self._dyn_max
            self._snapshot = graph
        return self._snapshot

    # -- mutation ----------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> None:
        """Insert ``{u, v}`` in place (validated)."""
        self.apply_delta(added=[(u, v)])

    def delete_edge(self, u: int, v: int) -> None:
        """Delete ``{u, v}`` in place (validated)."""
        self.apply_delta(removed=[(u, v)])

    def apply_delta(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
        *,
        record_undo: bool = False,
        _validated: bool = False,
    ) -> DeltaUndo | None:
        """Apply a whole delta **in place**: O(vol of touched rows).

        Validation (raises :class:`GraphError`, state untouched):
        endpoints in range, no self-loops, no key repeated within the
        batch or appearing in both lists, removed edges present, added
        edges absent — checked in that order.  All checks run before the
        first mutation, so a raising call never leaves a partial delta
        behind.

        With ``record_undo=True`` returns a :class:`DeltaUndo` token for
        :meth:`undo_delta`.  ``_validated`` skips the validation pass for
        callers that already ran an equivalent one (the incremental
        engine's typed-rejection layer does).
        """
        added = list(added)
        removed = list(removed)
        if not _validated:
            self._validate_delta(added, removed)
        undo = None
        if record_undo:
            touched = {w for edge in added for w in edge}
            touched.update(w for edge in removed for w in edge)
            data, starts, lens = self._data, self._starts, self._lens
            undo = DeltaUndo(
                rows=[
                    (v, data[starts[v] : starts[v] + lens[v]])
                    for v in touched
                ],
                num_edges=self._num_edges,
                deg_hist=dict(self._deg_hist),
                max_deg=self._dyn_max,
                snapshot=self._snapshot,
            )
        # Removals first, then insertions: each touched row keeps its
        # order minus the removals, with the additions appended.
        for u, v in removed:
            self._row_remove(u, v)
            self._row_remove(v, u)
        for u, v in added:
            self._row_append(u, v)
            self._row_append(v, u)
        self._num_edges += len(added) - len(removed)
        self._touch()
        return undo

    def undo_delta(self, undo: DeltaUndo) -> None:
        """Restore the rows captured by ``apply_delta(record_undo=True)``."""
        for v, row in undo.rows:
            ln = len(row)
            # No stale locals here: _grow_row can trigger a compaction that
            # replaces the storage buffers wholesale.
            if self._caps[v] < ln:
                self._grow_row(v, ln)
            if ln:
                start = self._starts[v]
                self._data[start : start + ln] = row
            self._lens[v] = ln
        self._deg_hist = dict(undo.deg_hist)
        self._dyn_max = undo.max_deg
        self._num_edges = undo.num_edges
        self._touch()
        if undo.snapshot is not None:
            self._snapshot = undo.snapshot
            self._offsets, self._indices = undo.snapshot.csr()

    def delta_after(
        self,
        added: Iterable[tuple[int, int]],
        removed: Iterable[tuple[int, int]],
    ) -> int:
        """The max degree the graph would have after the delta, without
        applying it: O(touched) through the degree histogram."""
        change: dict[int, int] = {}
        for u, v in added:
            change[u] = change.get(u, 0) + 1
            change[v] = change.get(v, 0) + 1
        for u, v in removed:
            change[u] = change.get(u, 0) - 1
            change[v] = change.get(v, 0) - 1
        hist = self._deg_hist
        lens = self._lens
        adjusted: dict[int, int] = {}
        top = self._dyn_max
        for v, d in change.items():
            old = lens[v]
            new = old + d
            adjusted[old] = adjusted.get(old, 0) - 1
            adjusted[new] = adjusted.get(new, 0) + 1
            if new > top:
                top = new
        d = top
        while d > 0 and hist.get(d, 0) + adjusted.get(d, 0) <= 0:
            d -= 1
        return d

    def storage_stats(self) -> dict[str, int]:
        """Internal layout accounting (for tests and capacity planning)."""
        return {
            "data_slots": len(self._data),
            "live_slots": sum(self._lens),
            "holes": self._holes,
            "relocations": self.relocations,
            "compactions": self.compactions,
        }

    # -- internals ---------------------------------------------------------

    def _validate_delta(
        self, added: list[tuple[int, int]], removed: list[tuple[int, int]]
    ) -> None:
        """The graph-layer validation contract of :meth:`apply_delta`."""
        n = self.n
        for u, v in added + removed:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
        removed_keys: set[tuple[int, int]] = set()
        for u, v in removed:
            key = (u, v) if u < v else (v, u)
            if key in removed_keys:
                raise GraphError(f"edge ({u}, {v}) removed twice in one update")
            removed_keys.add(key)
        added_keys: set[tuple[int, int]] = set()
        for u, v in added:
            key = (u, v) if u < v else (v, u)
            if key in added_keys:
                raise GraphError(f"duplicate edge ({u}, {v}) in update batch")
            if key in removed_keys:
                raise GraphError(
                    f"edge ({u}, {v}) both added and removed in one update"
                )
            added_keys.add(key)
        for u, v in removed:
            if not self.has_edge(u, v):
                raise GraphError(f"cannot remove edge ({u}, {v}): not present")
        for u, v in added:
            if self.has_edge(u, v):
                raise GraphError(f"cannot add edge ({u}, {v}): already present")

    def _bump_degree(self, v: int, new: int) -> None:
        hist = self._deg_hist
        old = self._lens[v]
        count = hist.get(old, 0) - 1
        if count:
            hist[old] = count
        else:
            hist.pop(old, None)
        hist[new] = hist.get(new, 0) + 1
        self._lens[v] = new
        if new > self._dyn_max:
            self._dyn_max = new
        elif old == self._dyn_max and old not in hist:
            d = old
            while d > 0 and hist.get(d, 0) <= 0:
                d -= 1
            self._dyn_max = d

    def _row_append(self, v: int, w: int) -> None:
        ln = self._lens[v]
        if ln == self._caps[v]:
            self._grow_row(v, ln + 1)
        self._data[self._starts[v] + ln] = w
        self._bump_degree(v, ln + 1)

    def _row_remove(self, v: int, w: int) -> None:
        start = self._starts[v]
        ln = self._lens[v]
        data = self._data
        end = start + ln
        for i in range(start, end):
            if data[i] == w:
                break
        else:  # pragma: no cover - presence validated before mutation
            raise GraphError(f"cannot remove edge ({v}, {w}): not present")
        if i < end - 1:
            data[i : end - 1] = data[i + 1 : end]  # shift left, order kept
        self._bump_degree(v, ln - 1)

    def _grow_row(self, v: int, needed: int) -> None:
        """Relocate row ``v`` to the tail of the data buffer with at least
        ``needed`` slots (power-of-two), leaving a hole behind."""
        new_cap = max(_row_capacity(needed - 1, self._min_slots), self._caps[v] * 2)
        data = self._data
        start, ln = self._starts[v], self._lens[v]
        new_start = len(data)
        data.extend(data[start : start + ln])
        if new_cap > ln:
            data.extend(array("i", bytes(4 * (new_cap - ln))))
        self._holes += self._caps[v]
        self._starts[v] = new_start
        self._caps[v] = new_cap
        self.relocations += 1
        if self._holes * 3 > len(data):
            self._compact_storage()

    def _compact_storage(self) -> None:
        """Rebuild the padded storage: fresh power-of-two capacities, no
        holes.  Amortized against the relocations that triggered it."""
        n = self.n
        old_data, old_starts, lens = self._data, self._starts, self._lens
        caps = array("i", bytes(4 * n))
        starts = array("q", bytes(8 * n))
        total = 0
        for v in range(n):
            cap = _row_capacity(lens[v], self._min_slots)
            caps[v] = cap
            starts[v] = total
            total += cap
        data = array("i", bytes(4 * total))
        for v in range(n):
            deg = lens[v]
            if deg:
                s_old, s_new = old_starts[v], starts[v]
                data[s_new : s_new + deg] = old_data[s_old : s_old + deg]
        self._starts = starts
        self._caps = caps
        self._data = data
        self._holes = 0
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DynamicGraph(n={self.n}, m={self.num_edges}, Δ={self.max_degree()}, "
            f"slots={len(self._data)}, holes={self._holes})"
        )

