"""The memory tier: one LRU over results, graphs and chain heads.

The service keys a coloring, its parent graph and an update chain's
head by the same content digest (``r1:`` solves, ``u1:`` updates; see
:mod:`repro.service.fingerprint`).  :class:`MemoryStore` keeps all three
in one :class:`~collections.OrderedDict` keyed by ``(kind, digest)``:

* **result** — a frozen :class:`~repro.api.result.ColoringResult`.  A
  solve is a pure function of ``(graph, config)``, so a hit is
  bit-identical to a fresh solve and only removes latency.
* **graph** — the solved :class:`~repro.graphs.graph.Graph`, the
  ``update`` verb's repair parent.  Stored CSR-only: the solver builds
  adjacency lists on the caller's graph, and they would cost ≈10× the
  CSR buffers for as long as the entry lives.
* **engine** — a live :class:`~repro.core.incremental.
  IncrementalColoring` at the head of an update chain.  An ``update``
  *moves* it (:meth:`MemoryStore.pop_engine`, apply in place,
  :meth:`MemoryStore.put_engine` under the child digest), so exactly one
  update holds a chain head at a time; a loser sees a stale parent,
  which clients already recover from.

One lock, one entry bound, one byte bound (the summed estimates below)
and one eviction loop cover every kind; eviction counters are typed by
kind because the losses cost differently (a graph re-enters on the next
solve, an evicted chain head only comes back through WAL replay).

With a :class:`~repro.service.storage.durable.DurableStore` attached,
result and graph puts write through and misses read through and
promote.  Engines never write through: the update WAL replays them
(:mod:`repro.service.storage.replay`).  Every memory-tier lookup counts
in ``repro_store_requests_total{tier="memory"}``, with or without a
durable tier.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from types import SimpleNamespace
from typing import Any

from repro.api.result import ColoringResult
from repro.graphs.graph import Graph
from repro.service.storage.api import StoreMeters
from repro.service.storage.durable import DurableStore

__all__ = [
    "MemoryStore",
    "estimate_result_nbytes",
    "estimate_graph_nbytes",
    "estimate_engine_nbytes",
]

RESULT, GRAPH, ENGINE = "result", "graph", "engine"
KINDS = (RESULT, GRAPH, ENGINE)

#: Default bounds: the sums of the two stores this one replaced.
DEFAULT_ENTRIES = 1152
DEFAULT_BYTES = 768 * 1024 * 1024


def estimate_result_nbytes(result: ColoringResult) -> int:
    """Footprint of one result: one 8-byte tuple slot per color (colors
    are at most Δ, small ints the interpreter shares) plus ≈48 bytes per
    stats key."""
    stats_keys = len(result.stats) + sum(
        1 + len(v) for v in result.phase_stats.values()
    )
    return 256 + 8 * len(result.colors) + 48 * (stats_keys + len(result.phase_rounds))


def estimate_graph_nbytes(graph: Graph) -> int:
    """Footprint of one stored graph: its two CSR buffers plus a fixed
    object overhead (the store keeps no adjacency lists)."""
    offsets, indices = graph.csr()
    return 256 + offsets.itemsize * len(offsets) + indices.itemsize * len(indices)


def estimate_engine_nbytes(engine: Any) -> int:
    """Footprint of one chain-head engine: the dynamic CSR's row buffers
    (with slack for relocated rows), the color store and the per-node
    bookkeeping."""
    return 512 + 16 * engine.n + 12 * engine.num_edges


def _csr_view(graph: Graph) -> Graph:
    """A zero-copy, CSR-only view of ``graph``.  Graphs go in and come
    out as views, so the adjacency lists a solver or a reader builds stay
    on its own object and never grow a stored entry."""
    return Graph._from_csr(graph.n, *graph.csr(), graph.num_edges)


class MemoryStore:
    """One byte-bounded LRU over ``(kind, digest)``, optionally in front
    of a :class:`DurableStore`.

    Parameters
    ----------
    max_entries:
        Entry-count bound over every kind (≥ 1).
    max_bytes:
        Bound on the summed byte estimates; ``None`` disables it.  A
        single entry larger than the bound is kept alone.
    durable:
        Optional durable tier: results and graphs write through on put
        and read through (and promote) on a miss.
    meters:
        Optional :class:`StoreMeters` for the ``repro_store_*`` metrics.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_ENTRIES,
        max_bytes: int | None = DEFAULT_BYTES,
        durable: DurableStore | None = None,
        meters: StoreMeters | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.durable = durable
        self._meters = meters if meters is not None else StoreMeters()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self._kind_entries = dict.fromkeys(KINDS, 0)
        self._kind_bytes = dict.fromkeys(KINDS, 0)
        self._hits = dict.fromkeys(KINDS, 0)
        self._misses = dict.fromkeys(KINDS, 0)
        self._durable_hits = dict.fromkeys(KINDS, 0)
        self._evictions = dict.fromkeys(KINDS, 0)
        self._puts = dict.fromkeys(KINDS, 0)

    # -- the one LRU -------------------------------------------------------

    def _probe(self, kinds: tuple[str, ...], key: str) -> tuple[str, Any] | None:
        """The first live ``(kind, payload)`` under ``key``, refreshed to
        most recently used; counted as one memory-tier lookup of
        ``kinds[0]``."""
        found: tuple[str, Any] | None = None
        with self._lock:
            for kind in kinds:
                entry = self._entries.get((kind, key))
                if entry is not None:
                    self._entries.move_to_end((kind, key))
                    found = kind, entry[0]
                    break
            if found is None:
                self._misses[kinds[0]] += 1
            else:
                self._hits[kinds[0]] += 1
        self._meters.request("memory", hit=found is not None)
        return found

    def _insert(
        self, kind: str, key: str, payload: Any, nbytes: int, tally: dict[str, int]
    ) -> None:
        """Insert (or refresh) one entry, counted in ``tally`` (puts or
        durable hits), then evict least recently used entries of any kind
        until both bounds hold."""
        with self._lock:
            tally[kind] += 1
            old = self._entries.pop((kind, key), None)
            if old is not None:
                self._account(kind, -1, -old[1])
            self._entries[(kind, key)] = (payload, nbytes)
            self._account(kind, 1, nbytes)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                (victim, _), entry = self._entries.popitem(last=False)
                self._account(victim, -1, -entry[1])
                self._evictions[victim] += 1

    def _remove(self, kind: str, key: str, evicted: bool) -> Any | None:
        """Take one entry out of the memory tier; its payload, or None."""
        with self._lock:
            entry = self._entries.pop((kind, key), None)
            if entry is None:
                return None
            self._account(kind, -1, -entry[1])
            if evicted:
                self._evictions[kind] += 1
            return entry[0]

    def _account(self, kind: str, entries: int, nbytes: int) -> None:
        self._kind_entries[kind] += entries
        self._kind_bytes[kind] += nbytes
        self._bytes += nbytes

    # -- results -----------------------------------------------------------

    def get(self, key: str) -> ColoringResult | None:
        """The result under ``key`` from memory, else from the durable tier
        (promoted into memory), else None."""
        found = self._probe((RESULT,), key)
        if found is not None:
            result: ColoringResult = found[1]
            return result
        if self.durable is None:
            return None
        stored = self.durable.get(key)
        if stored is not None:
            nbytes = estimate_result_nbytes(stored)
            self._insert(RESULT, key, stored, nbytes, self._durable_hits)
        return stored

    def put(self, key: str, result: ColoringResult, write_through: bool = True) -> None:
        """Insert (or refresh) a result and, unless ``write_through`` is
        off, write it to the durable tier (an idempotent no-op for a digest
        already on disk)."""
        self._insert(RESULT, key, result, estimate_result_nbytes(result), self._puts)
        if write_through and self.durable is not None:
            self.durable.put(key, result)

    def evict(self, key: str) -> bool:
        """Drop the result under ``key`` from both tiers; True when either
        held it."""
        dropped = self._remove(RESULT, key, evicted=True) is not None
        if self.durable is not None:
            dropped = self.durable.evict(key) or dropped
        return dropped

    # -- graphs ------------------------------------------------------------

    def get_graph(self, key: str) -> Graph | None:
        """The graph under ``key``, or None.

        A chain-head engine answers with an immutable snapshot of its
        graph (O(n + m) on the first read after a mutation, then cached
        by the engine until the next one).  A memory miss reads through
        the durable tier and promotes.
        """
        found = self._probe((GRAPH, ENGINE), key)
        if found is not None:
            kind, payload = found
            graph: Graph = payload.graph if kind == ENGINE else _csr_view(payload)
            return graph
        if self.durable is None:
            return None
        stored = self.durable.get_graph(key)
        if stored is not None:
            self._insert_graph(key, stored, self._durable_hits)
        return stored

    def put_graph(self, key: str, graph: Graph) -> None:
        """Keep ``graph`` and write it through."""
        self._insert_graph(key, graph, self._puts)
        if self.durable is not None:
            self.durable.put_graph(key, graph)

    def _insert_graph(self, key: str, graph: Graph, tally: dict[str, int]) -> None:
        view = _csr_view(graph)
        self._insert(GRAPH, key, view, estimate_graph_nbytes(view), tally)

    def evict_graph(self, key: str) -> bool:
        """Drop the graph and any chain head under ``key`` from both
        tiers; True when any tier held one."""
        dropped = self._remove(GRAPH, key, evicted=True) is not None
        dropped = self._remove(ENGINE, key, evicted=True) is not None or dropped
        if self.durable is not None:
            dropped = self.durable.evict_graph(key) or dropped
        return dropped

    # -- chain heads -------------------------------------------------------

    def put_engine(self, key: str, engine: Any) -> None:
        """Park a chain-head engine under the digest its state reflects
        (memory only: the WAL replays engines)."""
        self._insert(ENGINE, key, engine, estimate_engine_nbytes(engine), self._puts)

    def pop_engine(self, key: str) -> Any | None:
        """Take the chain-head engine under ``key``, or None.  A graph
        under the same digest stays; ownership moves to the caller."""
        return self._remove(ENGINE, key, evicted=False)

    # -- inventory ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether a result is stored under ``key`` in either tier."""
        with self._lock:
            if (RESULT, key) in self._entries:
                return True
        return self.durable is not None and key in self.durable

    def clear(self) -> None:
        """Empty the memory tier; the durable tier is the source of truth
        and keeps everything."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._kind_entries = dict.fromkeys(KINDS, 0)
            self._kind_bytes = dict.fromkeys(KINDS, 0)

    def stats(self) -> dict[str, dict[str, Any]]:
        """The ``cache`` (result kind) and ``graph_store`` (graph and
        engine kinds) sections of the service's ``stats`` verb.  The
        counts are memory-tier lookups; ``durable_hits`` are the misses
        the durable tier answered."""
        with self._lock:
            hits, misses = self._hits[RESULT], self._misses[RESULT]
            cache = {
                "hits": hits,
                "misses": misses,
                "puts": self._puts[RESULT],
                "evictions_lru": self._evictions[RESULT],
                # Kept only because perfbench (frozen) reads it: content
                # digests never go stale, so nothing expires.
                "evictions_ttl": 0,
                "entries": self._kind_entries[RESULT],
                "bytes": self._kind_bytes[RESULT],
                "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
                "durable_hits": self._durable_hits[RESULT],
            }
            graphs, chains = self._evictions[GRAPH], self._evictions[ENGINE]
            graph_store = {
                "entries": self._kind_entries[GRAPH] + self._kind_entries[ENGINE],
                "chains": self._kind_entries[ENGINE],
                "bytes": self._kind_bytes[GRAPH] + self._kind_bytes[ENGINE],
                "hits": self._hits[GRAPH],
                "misses": self._misses[GRAPH],
                "evictions": graphs + chains,
                "evictions_graphs": graphs,
                "evictions_chains": chains,
                "durable_hits": self._durable_hits[GRAPH],
            }
        return {"cache": cache, "graph_store": graph_store}

    # -- perfbench-frozen shims --------------------------------------------

    @property
    def memory(self) -> SimpleNamespace:
        """``cache.memory.put``: a result put that skips the durable tier.
        Kept only because perfbench (frozen) times the disk write in a
        span of its own."""
        return SimpleNamespace(put=partial(self.put, write_through=False))


class GraphStoreView:
    """``StorageBundle.graph_store``: the graph kinds under the names of
    the store they replaced.  Kept only because perfbench (frozen) calls
    them; in-tree code calls the :class:`MemoryStore` methods."""

    def __init__(self, store: MemoryStore) -> None:
        self.get = store.get_graph
        self.put = store.put_graph
        self.pop_engine = store.pop_engine
        self.put_engine = store.put_engine
