"""repro.service — the production coloring service layer.

Turns the PR 2 solver facade into a *served* system: requests per second,
tail latency, and cache hit rate become first-class measured quantities.

* :mod:`repro.service.fingerprint` — content-addressed request hashes
  (canonical CSR + result-affecting config fields);
* :mod:`repro.service.batcher` — :class:`BatchingGateway`, the asyncio
  gateway: one request lifecycle (cache probe, coalescing, admission,
  work in a worker thread, settlement) for ``solve`` micro-batches and
  ``update`` deltas, with bounded queue depth and explicit load
  shedding (:class:`repro.errors.ServiceOverloadedError`);
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` latency
  histograms (p50/p95/p99), QPS and queue depth, one JSON snapshot;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  newline-delimited-JSON TCP protocol (:class:`ColoringServer`,
  :class:`ColoringClient`, :class:`AsyncColoringClient`);
* :mod:`repro.service.sharding` — horizontal scale-out: a consistent-
  hash :class:`HashRing` over the digest keyspace, supervised
  :class:`ShardWorker` child processes, and the :class:`ShardRouter`
  NDJSON front tier (``repro serve --shards N``);
* :mod:`repro.service.storage` — the pluggable storage API:
  :class:`ResultStore`/:class:`WriteAheadLog` protocols,
  :class:`MemoryStore` (one LRU over frozen results, the served graphs
  that parent ``update`` deltas, and live chain-head engines, with byte
  accounting), the durable :class:`DurableStore` + update WAL behind
  it, one :class:`StorageConfig` of knobs, and warm-restart replay
  (``repro serve --store-dir`` — see docs/STORAGE.md and
  docs/INCREMENTAL.md).

Quick start::

    # terminal 1
    $ python -m repro serve --port 8512

    # terminal 2 (or any script)
    from repro.service import ColoringClient
    with ColoringClient(port=8512) as client:
        reply = client.solve(graph, algorithm="auto", seed=1)
        print(reply.result.palette, reply.cached)

See docs/SERVICE.md for the protocol, cache semantics and the
determinism guarantee (a cached result is bit-identical to a fresh
solve).
"""

from repro.service.batcher import BatchingGateway, GatewayReply, UpdateReply
from repro.service.client import AsyncColoringClient, ColoringClient, SolveReply
from repro.service.fingerprint import (
    config_fingerprint,
    graph_fingerprint,
    request_fingerprint,
    update_fingerprint,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import ColoringServer, NdjsonEndpoint
from repro.service.sharding import (
    HashRing,
    ShardRouter,
    ShardSupervisor,
    ShardWorker,
)
from repro.service.storage import (
    DurableStore,
    MemoryStore,
    ResultStore,
    StorageBundle,
    StorageConfig,
    UpdateWAL,
    WriteAheadLog,
)

__all__ = [
    "BatchingGateway",
    "GatewayReply",
    "UpdateReply",
    "ServiceMetrics",
    "ColoringServer",
    "NdjsonEndpoint",
    "ColoringClient",
    "AsyncColoringClient",
    "SolveReply",
    "HashRing",
    "ShardRouter",
    "ShardSupervisor",
    "ShardWorker",
    "ResultStore",
    "WriteAheadLog",
    "StorageConfig",
    "StorageBundle",
    "DurableStore",
    "MemoryStore",
    "UpdateWAL",
    "graph_fingerprint",
    "config_fingerprint",
    "request_fingerprint",
    "update_fingerprint",
]
