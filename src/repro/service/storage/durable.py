"""The durable content-addressed backend: segment files + digest index.

:class:`DurableStore` persists two kinds of records under a store
directory, both as framed :class:`~repro.service.storage.journal.Journal`
lines:

* **results** — canonical :meth:`ColoringResult.as_dict` JSON under its
  ``r1:``/``u1:`` digest, appended to rolling segment files
  (``segments/seg-000001.log``, …).  Because keys are content digests a
  put is idempotent: a key already indexed is never rewritten, which is
  also what makes double replay a no-op on disk.
* **graphs** — ``(n, edge list)`` under the same digest, so update-verb
  replay can rebuild a chain's base instance after a restart.

A compact index (``index.log``: ``key -> (segment, offset, length)``
entries plus eviction tombstones) makes a ``get`` one seek and one
bounded, CRC-checked read.  The index is itself a journal, so it
recovers its own torn tail; records that reached a segment but whose
index entry didn't survive (the kill-between-write-and-index crash) are
found at open time by scanning each segment past its highest indexed
offset and re-indexing what's there.  Nothing in recovery trusts file
contents: torn or corrupt tails are truncated, and a record whose bytes
fail the CRC on read is treated as a miss.

:class:`~repro.service.storage.memory.MemoryStore` sits in front of it:
reads probe memory first and promote durable hits, writes go through to
both.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.api.result import ColoringResult
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.service.storage.journal import Journal

__all__ = ["DurableStore"]

_KIND_RESULT = "result"
_KIND_GRAPH = "graph"
_SEGMENT_DIR = "segments"
_INDEX_NAME = "index.log"


def _segment_name(seq: int) -> str:
    return f"seg-{seq:06d}.log"


class DurableStore:
    """Append-only segment files of canonical JSON + a compact digest index.

    Parameters
    ----------
    root:
        The store directory (created if missing).  One serving process
        owns it exclusively; shards use per-shard subdirectories.
    fsync:
        Durability policy for both segments and index — a name from
        :data:`~repro.service.storage.journal.FSYNC_POLICIES` or a
        prebuilt :class:`FsyncPolicy`.
    segment_max_bytes:
        Roll to a fresh segment once the active one grows past this.
    meters:
        Optional :class:`~repro.service.storage.api.StoreMeters`.
    """

    def __init__(
        self,
        root: str | Path,
        fsync: str = "batch",
        segment_max_bytes: int = 64 * 1024 * 1024,
        meters: Any | None = None,
    ):
        self.root = Path(root)
        self.fsync_mode = fsync if isinstance(fsync, str) else fsync.mode
        self.segment_max_bytes = segment_max_bytes
        self._meters = meters
        self._lock = threading.Lock()
        # (kind, key) -> (segment name, offset, length)
        self._index: dict[tuple[str, str], tuple[str, int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt_reads = 0
        self.torn_records = 0
        self.recovered_records = 0

        (self.root / _SEGMENT_DIR).mkdir(parents=True, exist_ok=True)
        self._index_journal = Journal(self.root / _INDEX_NAME, fsync=fsync)
        self.torn_records += self._index_journal.torn_records
        self._load_index()
        self._recover_unindexed()
        self._active_name, self._active = self._open_active()

    # -- open-time recovery ------------------------------------------------

    def _segment_path(self, name: str) -> Path:
        return self.root / _SEGMENT_DIR / name

    def _segment_names(self) -> list[str]:
        return sorted(p.name for p in (self.root / _SEGMENT_DIR).glob("seg-*.log"))

    def _load_index(self) -> None:
        """Replay ``index.log`` into the in-memory map (last entry wins;
        tombstones delete)."""
        for _, _, entry in self._index_journal.scan():
            kind = entry.get("kind")
            key = entry.get("key")
            if not isinstance(kind, str) or not isinstance(key, str):
                continue
            if entry.get("del"):
                self._index.pop((kind, key), None)
            else:
                seg, off, length = entry.get("seg"), entry.get("off"), entry.get("len")
                if isinstance(seg, str) and isinstance(off, int) and isinstance(length, int):
                    self._index[(kind, key)] = (seg, off, length)

    def _recover_unindexed(self) -> None:
        """Re-index records that hit a segment but not the index.

        A crash between the segment append and the index append leaves a
        durable record invisible to the map; scanning each segment past
        its highest indexed offset finds exactly those.  Opening the
        segment as a :class:`Journal` also truncates its torn tail (the
        kill-mid-append crash).
        """
        covered: dict[str, int] = {}
        for seg, off, length in self._index.values():
            covered[seg] = max(covered.get(seg, 0), off + length)
        for name in self._segment_names():
            journal = Journal(self._segment_path(name), fsync="never")
            self.torn_records += journal.torn_records
            try:
                for off, length, payload in journal.scan(covered.get(name, 0)):
                    kind = payload.get("kind")
                    key = payload.get("key")
                    if not isinstance(kind, str) or not isinstance(key, str):
                        continue
                    if (kind, key) not in self._index:
                        self._index[(kind, key)] = (name, off, length)
                        self._index_journal.append(
                            {"kind": kind, "key": key, "seg": name,
                             "off": off, "len": length}
                        )
                        self.recovered_records += 1
            finally:
                journal.close()

    def _open_active(self) -> tuple[str, Journal]:
        names = self._segment_names()
        if names:
            last = names[-1]
            if self._segment_path(last).stat().st_size < self.segment_max_bytes:
                return last, Journal(self._segment_path(last), fsync=self.fsync_mode)
            seq = int(last[4:10]) + 1
        else:
            seq = 1
        name = _segment_name(seq)
        return name, Journal(self._segment_path(name), fsync=self.fsync_mode)

    def _roll_if_needed_locked(self) -> None:
        if self._active.size < self.segment_max_bytes:
            return
        self._active.close()
        seq = int(self._active_name[4:10]) + 1
        self._active_name = _segment_name(seq)
        self._active = Journal(
            self._segment_path(self._active_name), fsync=self.fsync_mode
        )

    # -- writes ------------------------------------------------------------

    def _append_locked(self, kind: str, key: str, payload: dict[str, Any]) -> None:
        if (kind, key) in self._index:
            return  # content-addressed: same key, same bytes — idempotent
        self._roll_if_needed_locked()
        fsyncs_before = self._active.fsyncs + self._index_journal.fsyncs
        off, length = self._active.append(
            {"kind": kind, "key": key, **payload}
        )
        self._index[(kind, key)] = (self._active_name, off, length)
        self._index_journal.append(
            {"kind": kind, "key": key, "seg": self._active_name,
             "off": off, "len": length}
        )
        if self._meters is not None:
            self._meters.append(kind, length)
            self._meters.fsync(
                self._active.fsyncs + self._index_journal.fsyncs - fsyncs_before
            )

    def put(self, key: str, result: ColoringResult) -> None:
        """Persist one result under its content digest (idempotent)."""
        with self._lock:
            self._append_locked(_KIND_RESULT, key, {"result": result.as_dict()})

    def put_graph(self, key: str, graph: Graph) -> None:
        """Persist one graph instance under the digest it parents."""
        with self._lock:
            self._append_locked(
                _KIND_GRAPH,
                key,
                {"n": graph.n, "edges": [[u, v] for u, v in graph.edges()]},
            )

    # -- reads -------------------------------------------------------------

    def _read_locked(self, kind: str, key: str) -> dict[str, Any] | None:
        entry = self._index.get((kind, key))
        if entry is None:
            self.misses += 1
            if self._meters is not None:
                self._meters.request("durable", hit=False)
            return None
        seg, off, length = entry
        if seg == self._active_name:
            payload = self._active.read_at(off, length)
        else:
            journal = Journal(self._segment_path(seg), fsync="never")
            try:
                payload = journal.read_at(off, length)
            finally:
                journal.close()
        if payload is None or payload.get("key") != key or payload.get("kind") != kind:
            # Bytes on disk don't frame-check: treat as a miss, never crash.
            self.corrupt_reads += 1
            self.misses += 1
            if self._meters is not None:
                self._meters.request("durable", hit=False)
            return None
        self.hits += 1
        if self._meters is not None:
            self._meters.request("durable", hit=True)
        return payload

    def get(self, key: str) -> ColoringResult | None:
        """The persisted result for ``key``, or None."""
        with self._lock:
            payload = self._read_locked(_KIND_RESULT, key)
        if payload is None:
            return None
        try:
            return ColoringResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            self.corrupt_reads += 1
            return None

    def get_graph(self, key: str) -> Graph | None:
        """The persisted graph for ``key``, or None."""
        with self._lock:
            payload = self._read_locked(_KIND_GRAPH, key)
        if payload is None:
            return None
        try:
            return Graph(payload["n"], [(u, v) for u, v in payload["edges"]])
        except (GraphError, KeyError, TypeError, ValueError):
            # Corrupt-payload shapes (KeyError/TypeError/ValueError) and
            # structurally invalid graphs (GraphError) both count as a
            # corrupt read and miss; anything else is a real bug and
            # must surface.
            self.corrupt_reads += 1
            return None

    # -- eviction ----------------------------------------------------------

    def _evict_locked(self, kind: str, key: str) -> bool:
        if self._index.pop((kind, key), None) is None:
            return False
        self._index_journal.append({"kind": kind, "key": key, "del": 1})
        return True

    def evict(self, key: str) -> bool:
        """Tombstone a result (bytes stay until compaction; lookups miss)."""
        with self._lock:
            return self._evict_locked(_KIND_RESULT, key)

    def evict_graph(self, key: str) -> bool:
        with self._lock:
            return self._evict_locked(_KIND_GRAPH, key)

    # -- inventory ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for kind, _ in self._index if kind == _KIND_RESULT)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return (_KIND_RESULT, key) in self._index

    def clear(self) -> None:
        """Tombstone everything (the volatile-protocol clear; segment
        bytes remain until compaction)."""
        with self._lock:
            for kind, key in list(self._index):
                self._evict_locked(kind, key)

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        with self._lock:
            self._active.sync()
            self._index_journal.sync()

    def close(self) -> None:
        with self._lock:
            self._active.close()
            self._index_journal.close()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            results = sum(1 for kind, _ in self._index if kind == _KIND_RESULT)
            graphs = sum(1 for kind, _ in self._index if kind == _KIND_GRAPH)
            segments = self._segment_names()
            nbytes = sum(
                self._segment_path(name).stat().st_size for name in segments
            )
            return {
                "entries": results,
                "graphs": graphs,
                "segments": len(segments),
                "bytes": nbytes,
                "index_bytes": self._index_journal.size,
                "hits": self.hits,
                "misses": self.misses,
                "appends": self._active.appends,
                "fsyncs": self._active.fsyncs + self._index_journal.fsyncs,
                "torn_records": self.torn_records,
                "recovered_records": self.recovered_records,
                "corrupt_reads": self.corrupt_reads,
                "fsync": self.fsync_mode,
            }

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

