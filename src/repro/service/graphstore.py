"""LRU graph store keyed by request fingerprint — the update verb's memory.

The result cache (:mod:`repro.service.cache`) holds colorings, which is
all a repeated ``solve`` needs; an ``update`` additionally needs the
parent *graph* to apply the delta and run the repair machinery against.
:class:`GraphStore` retains recently solved instances under the same
digests the cache uses, bounded by entry count and (estimated) bytes —
a CSR graph is two native-int buffers, so the accounting is tight.

Two entry kinds share the LRU:

* **graphs** — immutable :class:`repro.graphs.Graph` instances, seeded
  by ``solve`` replies (any of them can parent an update).
* **chain heads** — live :class:`repro.core.incremental.
  IncrementalColoring` engines owning a
  :class:`repro.graphs.dynamic.DynamicGraph`.  An ``update`` *moves*
  the engine from the parent digest to the child digest
  (:meth:`pop_engine` → apply delta in place → :meth:`put_engine`), so
  a chain of k updates mutates one updatable CSR instead of
  re-materializing k immutable children — the sustained-ops price from
  docs/INCREMENTAL.md, now behind the ``update`` verb.

Moving the engine means only the chain *head* stays updatable: an
update addressing a digest the chain has advanced past finds a plain
graph (if a solve seeded one) or nothing.  Losing an entry is never
incorrect: an ``update`` whose parent was evicted — or whose chain
moved on — fails with :class:`repro.errors.StaleParentError` and the
client falls back to a full ``solve`` of the child graph, which
re-seeds the store.  Evictions are typed in the stats
(``evictions_graphs`` vs ``evictions_chains``) because the two losses
cost differently: a graph re-enters on the next solve, an evicted live
chain head is unrecoverable in memory — only WAL replay
(:mod:`repro.service.storage.replay`) brings it back, and only across a
restart.  Thread-safe for the same reason the cache is — the gateway
reads on the event loop while solves complete in worker threads.

With a :class:`~repro.service.storage.durable.DurableStore` attached,
graph puts write through to disk and graph misses read through (and
promote), so update-verb repair parents survive restarts alongside the
results they colored.  Engines never write through — they are exactly
what the WAL replays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.graphs.graph import Graph

__all__ = ["GraphStore", "estimate_graph_nbytes", "estimate_engine_nbytes"]

_KIND_GRAPH = "graph"
_KIND_ENGINE = "engine"


def estimate_graph_nbytes(graph: Graph) -> int:
    """In-memory footprint of one stored graph: the two CSR buffers plus
    a fixed object overhead (lazy ``adj``/set views are not retained at
    store time and are not charged)."""
    offsets, indices = graph.csr()
    return 256 + offsets.itemsize * len(offsets) + indices.itemsize * len(indices)


def estimate_engine_nbytes(engine: Any) -> int:
    """Footprint of one chain-head engine: the dynamic CSR (offsets +
    row data, charged at 2× the live edges to cover relocated rows), the
    color store, and the undo/journal machinery overhead."""
    return 512 + 16 * engine.n + 32 * engine.num_edges


class GraphStore:
    """An LRU map ``fingerprint -> Graph | chain-head engine`` with byte
    accounting.

    Parameters
    ----------
    max_entries:
        Entry-count bound (≥ 1).
    max_bytes:
        Bound on the summed byte estimates; ``None`` disables byte-based
        eviction.
    durable:
        Optional :class:`~repro.service.storage.durable.DurableStore`;
        graph puts write through and graph misses read through.
    """

    def __init__(
        self,
        max_entries: int = 128,
        max_bytes: int | None = 512 * 1024 * 1024,
        durable: Any | None = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.durable = durable
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[str, Any, int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evictions_graphs = 0
        self.evictions_chains = 0
        self.durable_hits = 0

    def get(self, key: str) -> Graph | None:
        """The stored graph for ``key``, or None.

        A chain-head entry answers with an immutable snapshot of its
        engine's graph — O(n + m) on first read after a mutation, cached
        by the :class:`~repro.graphs.dynamic.DynamicGraph` until the next
        one — so callers that only need the instance (the stale-parent
        fallback, tests) never see engine internals.  A memory miss with
        a durable tier attached falls through to disk and promotes.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                kind, payload, _ = entry
        if entry is not None:
            if kind == _KIND_ENGINE:
                return payload.graph
            return payload
        if self.durable is None:
            return None
        graph = self.durable.get_graph(key)
        if graph is not None:
            self.durable_hits += 1
            self._put(key, _KIND_GRAPH, graph, estimate_graph_nbytes(graph))
        return graph

    def put(self, key: str, graph: Graph) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past the bounds.

        Writes through to the durable tier when one is attached (an
        idempotent no-op for a digest already on disk)."""
        self._put(key, _KIND_GRAPH, graph, estimate_graph_nbytes(graph))
        if self.durable is not None:
            self.durable.put_graph(key, graph)

    # -- chain heads -------------------------------------------------------

    def put_engine(self, key: str, engine: Any) -> None:
        """Store a live chain-head engine under the digest of the version
        its state currently reflects."""
        self._put(key, _KIND_ENGINE, engine, estimate_engine_nbytes(engine))

    def pop_engine(self, key: str) -> Any | None:
        """Remove and return the chain-head engine at ``key``, or None.

        Only engine entries are popped — a plain graph under the same
        digest stays put (the caller then takes the build-an-engine
        path).  Popping transfers ownership: exactly one update can hold
        a given chain head at a time, which is what keeps in-place
        mutation safe under concurrent requests (the loser sees a stale
        parent, a retriable condition clients already recover from).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != _KIND_ENGINE:
                return None
            del self._entries[key]
            self._bytes -= entry[2]
            return entry[1]

    def _put(self, key: str, kind: str, payload: Any, nbytes: int) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[key] = (kind, payload, nbytes)
            self._bytes += nbytes
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                _, (victim_kind, _, victim_bytes) = self._entries.popitem(last=False)
                self._bytes -= victim_bytes
                self.evictions += 1
                if victim_kind == _KIND_ENGINE:
                    self.evictions_chains += 1
                else:
                    self.evictions_graphs += 1

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the memory tier if present (typed-counted
        like an LRU eviction); the durable tier is untouched."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            kind, _, nbytes = entry
            self._bytes -= nbytes
            self.evictions += 1
            if kind == _KIND_ENGINE:
                self.evictions_chains += 1
            else:
                self.evictions_graphs += 1
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict[str, Any]:
        with self._lock:
            chains = sum(
                1 for kind, _, _ in self._entries.values() if kind == _KIND_ENGINE
            )
            return {
                "entries": len(self._entries),
                "chains": chains,
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "evictions_graphs": self.evictions_graphs,
                "evictions_chains": self.evictions_chains,
                "durable_hits": self.durable_hits,
            }
