"""The shard router: one NDJSON front door over N shard workers.

Clients connect to :class:`ShardRouter` exactly as they would to a
single :class:`repro.service.server.ColoringServer` — same protocol,
same replies — and the router forwards each request to the shard owning
its digest arc:

* ``solve`` — the router computes the *exact* server-side fingerprint
  (``edge_keys_fingerprint + config_fingerprint``, the cache key) from
  the raw payload and routes by :meth:`HashRing.owner`.  Identical
  requests therefore always land on the same shard, so per-shard
  ``MemoryStore`` partitions hold disjoint arcs of the keyspace and coalescing/caching work exactly as in the single-process
  service — and replies stay bit-identical to it.
* ``update`` — routed by the shard that *owns the chain*: child digests
  are recorded shard-side-sticky in a bounded LRU as replies stream
  back (a ``u1:`` child hashes to an arbitrary arc, but its chain-head
  engine lives where its root ``r1:`` parent landed), falling back to
  ``ring.owner(parent_digest)`` for roots.  Update chains therefore
  never cross shards; a forgotten mapping surfaces as the protocol's
  existing retriable ``stale_parent``.
* ``stats`` — fanned out to every shard and aggregated into one cluster
  snapshot (summed counters; latency percentiles read off the merged
  ``repro_request_latency_seconds`` histogram, so they are fleet
  quantiles) that keeps the single-server stats shape, plus ``router``
  and per-shard sections.
* ``metrics`` — fanned out and merged into one fleet registry snapshot
  (JSON or Prometheus text).
* ``ping`` — answered locally with the fleet's liveness.

Transport: one :class:`repro.service.client.NdjsonConnection` per shard,
the connection :class:`~repro.service.client.AsyncColoringClient` runs
on; replies pass through with only the client's id restored.  A shard
that is down or drops the connection mid-request answers ``overloaded``
(:class:`repro.errors.ShardUnavailableError`, retriable), never a hang.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from typing import Any, Sequence

from repro.errors import ReproError, ServiceProtocolError, ShardUnavailableError
from repro.obs.meters import MetricsRegistry, merge_snapshots, render_prometheus
from repro.obs.trace import NOOP_SPAN, NULL_TRACER, Tracer
from repro.service.client import NdjsonConnection
from repro.service.fingerprint import (
    combine_fingerprints,
    config_fingerprint,
    edge_keys_fingerprint,
)
from repro.service.metrics import LATENCY_METRIC, latency_sections
from repro.service.server import (
    NdjsonEndpoint,
    _error_reply,
    config_from_payload,
    parse_graph_payload,
)
from repro.service.sharding.hashring import DEFAULT_VNODES, HashRing

__all__ = ["ShardRouter"]

#: Payload edge count above which the fingerprint hash (an O(m)
#: pure-Python walk) moves off the event loop — same threshold as the
#: gateway's own submit path.
_INLINE_FINGERPRINT_MAX_EDGES = 100_000


class ShardRouter(NdjsonEndpoint):
    """Consistent-hash NDJSON front tier over shard workers.

    Parameters
    ----------
    shard_addresses:
        One ``(host, port)`` per shard; index i becomes ring member
        ``"shard-i"`` (stable across restarts — the supervisor calls
        :meth:`update_shard` with the same index).
    host / port:
        The front door clients connect to (``port=0`` = ephemeral).
    vnodes:
        Ring points per shard.
    update_map_entries:
        Bound on the child-digest → shard LRU that keeps update chains
        local; an evicted mapping degrades to the retriable
        ``stale_parent`` path, never to a wrong answer.
    """

    def __init__(
        self,
        shard_addresses: Sequence[tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = DEFAULT_VNODES,
        update_map_entries: int = 262_144,
        tracer: Tracer | None = None,
    ):
        if not shard_addresses:
            raise ValueError("ShardRouter needs at least one shard address")
        super().__init__(host, port)
        self._links = [NdjsonConnection(h, p) for h, p in shard_addresses]
        self._shard_ids = [f"shard-{i}" for i in range(len(self._links))]
        self.ring = HashRing(self._shard_ids, vnodes=vnodes)
        self._index_of = {sid: i for i, sid in enumerate(self._shard_ids)}
        self._update_owner: OrderedDict[str, int] = OrderedDict()
        self.update_map_entries = update_map_entries
        self.routed: dict[str, int] = {"solve": 0, "update": 0, "stats": 0}
        self.per_shard: list[int] = [0] * len(self._links)
        self.unavailable = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The router's own instrument registry: merged with the shards'
        # snapshots by the ``metrics`` verb into one fleet view.
        self.registry = MetricsRegistry()
        self.registry.install_process_gauges()
        self._routed_counter = self.registry.counter(
            "repro_router_requests_total",
            "Requests routed by op",
            labelnames=("op",),
        )
        self._forward_counter = self.registry.counter(
            "repro_router_forwards_total",
            "Forwards by shard index",
            labelnames=("shard",),
        )
        self._error_counter = self.registry.counter(
            "repro_router_errors_total",
            "Router-tier errors by typed kind",
            labelnames=("kind",),
        )
        self._shard_up = self.registry.gauge(
            "repro_router_shard_up",
            "1 when the shard answered the last metrics fan-out",
            labelnames=("shard",),
        )

    @property
    def num_shards(self) -> int:
        return len(self._links)

    def update_shard(self, index: int, address: tuple[str, int]) -> None:
        """Repoint shard ``index`` after a restart (same ring arc, new
        port); called by the supervisor."""
        self._links[index].update_address(*address)

    async def _on_close(self) -> None:
        for link in self._links:
            await link.close()

    # -- routing -----------------------------------------------------------

    def _shard_for_digest(self, digest: str) -> int:
        return self._index_of[self.ring.owner(digest)]

    def _remember_chain(self, child_digest: str, shard: int) -> None:
        owners = self._update_owner
        owners[child_digest] = shard
        owners.move_to_end(child_digest)
        while len(owners) > self.update_map_entries:
            owners.popitem(last=False)

    def _count_error(self, kind: str) -> None:
        self._error_counter.inc(kind=kind)

    async def _reply_for(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceProtocolError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "solve")
            if op == "ping":
                return {
                    "id": request_id, "ok": True, "pong": True,
                    "shards": self.num_shards,
                }
            if op == "stats":
                self.routed["stats"] += 1
                self._routed_counter.inc(op="stats")
                return await self._aggregate_stats(request_id)
            if op == "metrics":
                self._routed_counter.inc(op="metrics")
                return await self._aggregate_metrics(request_id, request)
            if op == "update":
                return await self._route_update(request_id, request)
            if op != "solve":
                raise ServiceProtocolError(f"unknown op {op!r}")
            return await self._route_solve(request_id, request)
        except ServiceProtocolError as exc:
            self._error_counter.inc(kind="protocol")
            return _error_reply(request_id, "protocol", exc)
        except (json.JSONDecodeError, ReproError) as exc:
            self._error_counter.inc(kind="protocol")
            return _error_reply(request_id, "protocol", exc)

    async def _route_solve(
        self, request_id: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        # Parse just enough to fingerprint — the same digest the shard's
        # gateway will compute, so the ring partitions the cache keyspace
        # exactly (and malformed payloads bounce here, one hop early).
        parsed = parse_graph_payload(request.get("graph"))
        config = config_from_payload(request.get("config"))

        def fingerprint() -> str:
            return combine_fingerprints(
                edge_keys_fingerprint(parsed.n, parsed.edge_keys),
                config_fingerprint(config.without_observer()),
            )

        if len(parsed.edge_keys) > _INLINE_FINGERPRINT_MAX_EDGES:
            digest = await asyncio.get_running_loop().run_in_executor(
                None, fingerprint
            )
        else:
            digest = fingerprint()
        shard = self._shard_for_digest(digest)
        self.routed["solve"] += 1
        self._routed_counter.inc(op="solve")
        # The root of the fleet-wide trace: the sampling decision made
        # here rides the wire to the shard (and from there to the solver).
        span = self.tracer.start_span(
            "router.request", attrs={"op": "solve", "shard": shard}
        )
        with span:
            return await self._forward(shard, request, request_id, span=span)

    async def _route_update(
        self, request_id: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        parent_digest = request.get("parent_digest")
        if not isinstance(parent_digest, str) or not parent_digest:
            raise ServiceProtocolError("update needs a string parent_digest")
        # Chain locality: the shard that served the parent owns the whole
        # chain (its MemoryStore holds the live chain-head engine).  Root
        # parents (r1: solve digests) route by the ring like their solve
        # did; u1: children by the sticky map recorded from replies.
        shard = self._update_owner.get(parent_digest)
        if shard is None:
            shard = self._shard_for_digest(parent_digest)
        self.routed["update"] += 1
        self._routed_counter.inc(op="update")
        span = self.tracer.start_span(
            "router.request", attrs={"op": "update", "shard": shard}
        )
        with span:
            reply = await self._forward(shard, request, request_id, span=span)
        fingerprint = reply.get("fingerprint")
        if reply.get("ok") and isinstance(fingerprint, str):
            self._remember_chain(fingerprint, shard)
            self._remember_chain(parent_digest, shard)
        return reply

    async def _forward(
        self, shard: int, request: dict[str, Any], request_id: Any,
        *, span: Any = NOOP_SPAN,
    ) -> dict[str, Any]:
        self.per_shard[shard] += 1
        self._forward_counter.inc(shard=shard)
        forward_span = self.tracer.start_span("router.forward", parent=span)
        payload = dict(request)
        if forward_span:
            # the shard continues this trace via the wire context
            payload["trace"] = forward_span.wire_context()
        try:
            reply = await self._links[shard].request(payload)
        except ServiceProtocolError as exc:
            self.unavailable += 1
            self._error_counter.inc(kind="shard_unavailable")
            if forward_span:
                forward_span.set_attr("error", "shard_unavailable").end()
            unavailable = ShardUnavailableError(
                f"shard {shard} is unavailable ({exc}); retry with backoff"
            )
            return _error_reply(request_id, "overloaded", unavailable)
        forward_span.end()
        reply["id"] = request_id
        return reply

    # -- cluster stats -----------------------------------------------------

    async def _fan_out(self, op: str) -> list[dict[str, Any] | str]:
        """Send ``op`` to every shard at once.  Per shard: the object its
        ``ok`` reply carries under ``op``, or why there is none."""

        async def one(link: NdjsonConnection) -> dict[str, Any] | str:
            try:
                reply = await link.request({"op": op})
            except ServiceProtocolError as exc:
                return f"unavailable ({exc})"
            if not reply.get("ok"):
                return str(reply.get("error"))
            body = reply.get(op)
            return body if isinstance(body, dict) else f"malformed {op} reply"

        return list(await asyncio.gather(*(one(link) for link in self._links)))

    async def _aggregate_stats(self, request_id: Any) -> dict[str, Any]:
        bodies, fleet = await asyncio.gather(
            self._fan_out("stats"), self._fleet_metrics()
        )
        shards = [
            {"shard": i, "alive": True, **body} if isinstance(body, dict)
            else {"shard": i, "alive": False, "error": body}
            for i, body in enumerate(bodies)
        ]
        stats = _merge_shard_stats(shards, fleet)
        stats["router"] = {
            "shards": self.num_shards,
            "alive": sum(1 for s in shards if s.get("alive")),
            "vnodes": self.ring.vnodes,
            "routed": dict(self.routed),
            "per_shard": list(self.per_shard),
            "unavailable": self.unavailable,
            "update_map_entries": len(self._update_owner),
        }
        stats["shards"] = shards
        return {"id": request_id, "ok": True, "stats": stats}

    async def _fleet_metrics(self) -> dict[str, Any]:
        """Fan ``metrics`` out to every shard and merge the snapshots
        (plus the router's own registry) into one fleet-wide view.

        Counters, histogram buckets and gauges all sum per label set
        (see :func:`merge_snapshots`): the fleet's RSS is the sum of its
        processes' RSS.  A dead shard is skipped — its absence shows as
        ``repro_router_shard_up 0`` rather than a failed scrape.
        """
        bodies = await self._fan_out("metrics")
        for shard, body in enumerate(bodies):
            self._shard_up.set(1.0 if isinstance(body, dict) else 0.0, shard=shard)
        # the router's registry is read after the gauges it just set
        return merge_snapshots(
            [self.registry.as_dict()] + [b for b in bodies if isinstance(b, dict)]
        )

    async def _aggregate_metrics(
        self, request_id: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        fmt = request.get("format", "json")
        if fmt not in ("json", "prometheus"):
            raise ServiceProtocolError(
                f"unknown metrics format {fmt!r} (expected json|prometheus)"
            )
        merged = await self._fleet_metrics()
        if fmt == "prometheus":
            return {
                "id": request_id, "ok": True,
                "metrics_text": render_prometheus(merged),
            }
        return {"id": request_id, "ok": True, "metrics": merged}


def _merge_shard_stats(
    shards: list[dict[str, Any]], fleet: dict[str, Any]
) -> dict[str, Any]:
    """Fold per-shard gateway snapshots into one cluster view that keeps
    the single-server stats shape (``cache``/``graph_store``/``metrics``/
    ``coalesced`` at the top level), so tooling written against one
    server — the bench harness's hit-rate deltas, the smoke checks —
    reads the router's stats unchanged.

    Counters sum; ``mean_batch_size`` is batch-count weighted.  The
    latency sections come from ``fleet``, the merged registry snapshot:
    histogram buckets add across shards, so its percentiles are the
    fleet's, through the same :func:`latency_sections` a single server
    uses.
    """
    alive = [s for s in shards if s.get("alive")]
    cache = {}
    if alive:
        cache = {
            k: sum(s.get("cache", {}).get(k, 0) for s in alive)
            for k in ("hits", "misses", "puts", "evictions_lru",
                      "evictions_ttl", "entries", "bytes", "durable_hits")
        }
        probes = cache["hits"] + cache["misses"]
        cache["hit_rate"] = round(cache["hits"] / probes, 4) if probes else 0.0
    graph_store = {
        k: sum(s.get("graph_store", {}).get(k, 0) for s in alive)
        for k in ("entries", "chains", "bytes", "hits", "misses", "evictions",
                  "evictions_graphs", "evictions_chains", "durable_hits")
    } if alive else {}
    metrics: dict[str, Any] = {}
    if alive:
        snaps = [s.get("metrics", {}) for s in alive]
        for key in ("completed", "cached", "rejected", "failed", "coalesced"):
            metrics[key] = sum(snap.get(key, 0) for snap in snaps)
        metrics["qps"] = round(sum(snap.get("qps", 0.0) for snap in snaps), 3)
        served = metrics["completed"]
        metrics["cache_hit_rate"] = (
            round(metrics["cached"] / served, 4) if served else 0.0
        )
        metrics["queue_depth"] = sum(snap.get("queue_depth", 0) for snap in snaps)
        metrics["queue_depth_peak"] = max(
            (snap.get("queue_depth_peak", 0) for snap in snaps), default=0
        )
        metrics["batches"] = sum(snap.get("batches", 0) for snap in snaps)
        weight = sum(snap.get("batches", 0) for snap in snaps)
        metrics["mean_batch_size"] = round(
            sum(
                snap.get("mean_batch_size", 0.0) * snap.get("batches", 0)
                for snap in snaps
            ) / weight,
            3,
        ) if weight else 0.0
        if LATENCY_METRIC in fleet:
            metrics.update(latency_sections(fleet[LATENCY_METRIC]))
    return {
        "cache": cache,
        "graph_store": graph_store,
        "metrics": metrics,
        "coalesced": sum(s.get("coalesced", 0) for s in alive),
        "outstanding": sum(s.get("outstanding", 0) for s in alive),
    }
