"""The pluggable storage API of the coloring service.

Everything the serving tier keeps between requests goes through two
small protocols:

* :class:`ResultStore` — a ``digest -> ColoringResult`` map
  (get/put/evict/stats) keyed by the content-addressed ``r1:`` solve and
  ``u1:`` update digests of :mod:`repro.service.fingerprint`.  Because
  those digests carry the algorithm identity and full config payload,
  results from different engines can share one store without colliding.
* :class:`WriteAheadLog` — the ``update`` verb's durability half: an
  append-only log of edge deltas, replayed on restart to rebuild the
  chain-head engines of the :class:`~repro.service.storage.memory.
  MemoryStore` the process lost.

Two backends ship behind them: the in-memory
:class:`~repro.service.storage.memory.MemoryStore` (one LRU over
results, graphs and chain heads) and the durable
:class:`~repro.service.storage.durable.DurableStore` (append-only
segment files + compact digest index; see docs/STORAGE.md).  With a
store directory configured the memory store sits in front of the
durable one: writes go through, misses read through, and warm restarts
replay instead of re-solving.

:class:`StorageConfig` is the one place every storage knob lives —
memory bounds and durability options — and :meth:`StorageConfig.build`
turns it into the :class:`StorageBundle` of live stores that
:class:`~repro.service.batcher.BatchingGateway`,
:class:`~repro.service.server.ColoringServer` and ``repro serve`` all
thread through.  Tests (and anything that needs bespoke instances)
construct a :class:`StorageBundle` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

from repro.api.result import ColoringResult
from repro.service.storage.journal import FSYNC_POLICIES

if TYPE_CHECKING:
    from repro.service.storage.memory import GraphStoreView, MemoryStore

__all__ = [
    "ResultStore",
    "WriteAheadLog",
    "StorageConfig",
    "StorageBundle",
    "StoreMeters",
]


@runtime_checkable
class ResultStore(Protocol):
    """A keyed store of frozen :class:`ColoringResult` objects.

    Keys are the service's content digests (``r1:`` solves, ``u1:``
    update chains), so equal keys imply bit-identical results and a
    store never needs invalidation — only eviction.
    """

    def get(self, key: str) -> ColoringResult | None:
        """The stored result, or None (miss/evicted)."""
        ...

    def put(self, key: str, result: ColoringResult) -> None:
        """Insert (or refresh) ``key``."""
        ...

    def evict(self, key: str) -> bool:
        """Drop ``key`` if present; True when something was dropped."""
        ...

    def stats(self) -> Any:
        """A JSON-able snapshot."""
        ...

    def clear(self) -> None:
        """Drop every (volatile) entry."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, key: str) -> bool: ...


@runtime_checkable
class WriteAheadLog(Protocol):
    """An append-only, replayable log of update-verb deltas."""

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one delta record."""
        ...

    def replay(self) -> Iterator[dict[str, Any]]:
        """Every intact record, in append order."""
        ...

    def sync(self) -> None:
        """Flush (and, per policy, fsync) pending appends."""
        ...

    def close(self) -> None: ...

    def stats(self) -> dict[str, Any]: ...


class StoreMeters:
    """The ``repro_store_*`` instruments, no-op without a registry.

    One instance is shared by every store in a bundle; the registry's
    get-or-create semantics make the wiring idempotent.
    """

    def __init__(self, registry: "Any | None" = None):
        self.registry = registry
        if registry is None:
            self._requests = self._appends = self._bytes = None
            self._fsyncs = self._replayed = self._replay_s = None
            return
        self._requests = registry.counter(
            "repro_store_requests_total",
            "Result-store lookups by tier and outcome",
            labelnames=("tier", "outcome"),
        )
        self._appends = registry.counter(
            "repro_store_appends_total",
            "Durable records appended by kind",
            labelnames=("kind",),
        )
        self._bytes = registry.counter(
            "repro_store_bytes_written_total",
            "Bytes appended to durable files by kind",
            labelnames=("kind",),
        )
        self._fsyncs = registry.counter(
            "repro_store_fsyncs_total", "fsync calls issued by the storage layer"
        )
        self._replayed = registry.counter(
            "repro_store_replayed_total",
            "Entities restored by warm-restart replay, by kind",
            labelnames=("kind",),
        )
        self._replay_s = registry.gauge(
            "repro_store_replay_seconds", "Wall time of the last storage replay"
        )

    def request(self, tier: str, hit: bool) -> None:
        if self._requests is not None:
            self._requests.inc(tier=tier, outcome="hit" if hit else "miss")

    def append(self, kind: str, nbytes: int) -> None:
        if self._appends is not None:
            self._appends.inc(kind=kind)
            self._bytes.inc(nbytes, kind=kind)

    def fsync(self, count: int = 1) -> None:
        if self._fsyncs is not None and count:
            self._fsyncs.inc(count)

    def replayed(self, kind: str, count: int) -> None:
        if self._replayed is not None and count:
            self._replayed.inc(count, kind=kind)

    def replay_seconds(self, seconds: float) -> None:
        if self._replay_s is not None:
            self._replay_s.set(seconds)


@dataclass
class StorageConfig:
    """Every storage knob of the serving tier, in one place.

    Memory tier (always on)
    -----------------------
    cache_entries / cache_bytes:
        The :class:`~repro.service.storage.memory.MemoryStore` bounds
        over results, graphs and chain heads together — entry count and
        summed byte estimate (None disables the byte bound).

    Durable tier (on when ``store_dir`` is set)
    -------------------------------------------
    store_dir:
        Directory of the append-only segment files, the compact digest
        index and the update WAL.  None = memory-only.
    wal:
        Keep the update write-ahead log (chain heads replay on restart).
        Ignored without ``store_dir``.
    fsync:
        ``"always"`` / ``"batch"`` / ``"never"`` — see
        :class:`~repro.service.storage.journal.FsyncPolicy` and the
        durability table in docs/STORAGE.md.
    segment_max_bytes:
        Roll to a fresh segment file past this size.
    """

    cache_entries: int = 1152
    cache_bytes: int | None = 768 * 1024 * 1024
    store_dir: str | Path | None = None
    wal: bool = True
    fsync: str = "batch"
    segment_max_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.cache_entries < 1:
            raise ValueError(f"cache_entries must be >= 1, got {self.cache_entries}")
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if self.segment_max_bytes < 1:
            raise ValueError(
                f"segment_max_bytes must be >= 1, got {self.segment_max_bytes}"
            )

    @property
    def durable(self) -> bool:
        return self.store_dir is not None

    def build(self, registry: "Any | None" = None) -> "StorageBundle":
        """Construct the live stores this config describes.

        ``registry`` (a :class:`repro.obs.meters.MetricsRegistry`) wires
        the ``repro_store_*`` instruments; None leaves them off.
        """
        from repro.service.storage.durable import DurableStore
        from repro.service.storage.memory import MemoryStore
        from repro.service.storage.wal import UpdateWAL

        meters = StoreMeters(registry)
        durable = wal = None
        if self.store_dir is not None:
            root = Path(self.store_dir)
            durable = DurableStore(
                root,
                fsync=self.fsync,
                segment_max_bytes=self.segment_max_bytes,
                meters=meters,
            )
            if self.wal:
                wal = UpdateWAL(root / "update.wal", fsync=self.fsync, meters=meters)
        cache = MemoryStore(
            max_entries=self.cache_entries,
            max_bytes=self.cache_bytes,
            durable=durable,
            meters=meters,
        )
        return StorageBundle(
            cache=cache, durable=durable, wal=wal, meters=meters, config=self
        )


@dataclass
class StorageBundle:
    """The live stores one gateway serves from.

    Built by :meth:`StorageConfig.build`, or constructed directly when a
    caller needs bespoke instances.  ``cache`` is the memory tier (with
    ``durable`` behind it when set); ``wal`` must satisfy
    :class:`WriteAheadLog` when present.
    """

    cache: "MemoryStore"
    durable: Any | None = None
    wal: Any | None = None
    meters: StoreMeters = field(default_factory=StoreMeters)
    config: StorageConfig | None = None

    @cached_property
    def graph_store(self) -> "GraphStoreView":
        """The graph kinds of :attr:`cache` under their old method names;
        kept only because perfbench (frozen) calls them."""
        from repro.service.storage.memory import GraphStoreView

        return GraphStoreView(self.cache)

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()
        if self.wal is not None:
            self.wal.close()

    def stats(self) -> dict[str, Any]:
        """The durable figures (the memory tier's ``cache`` and
        ``graph_store`` sections sit at the top of the gateway's stats)."""
        out: dict[str, Any] = {"durable": self.durable is not None}
        if self.durable is not None:
            out["store"] = self.durable.stats()
        if self.wal is not None:
            out["wal"] = self.wal.stats()
        return out
