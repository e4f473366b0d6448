"""Router correctness over in-process shards + graceful shutdown.

Two real :class:`ColoringServer` backends and a :class:`ShardRouter`
front tier run in one event loop (no child processes — that is
``tests/test_shard_worker.py``), so these stay tier-1-fast while
exercising the full NDJSON wire path:

* routed solves are **bit-identical** to the same requests served by a
  single-process server, and land deterministically on the ring-owner
  shard (dup requests hit its cache);
* update chains never cross shards (the chain-head engine stays in one
  shard's MemoryStore);
* stale-parent / overload / dead-shard all surface as the protocol's
  typed, retriable errors;
* aggregated stats keep the single-server shape, with latency
  percentiles read off the merged shard histograms;
* ``shutdown()`` drains in-flight requests before closing.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.harness import carve_matching
from repro.api import SolverConfig
from repro.errors import (
    ServiceOverloadedError,
    StaleParentError,
)
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.service import (
    AsyncColoringClient,
    ColoringServer,
    ServiceMetrics,
    ShardRouter,
    request_fingerprint,
)
from repro.service.storage import StorageConfig


def updatable_instance(n=64, delta=4, slack=4, seed=0):
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, slack)
    return full.apply_updates(removed=matching), matching


class _Cluster:
    """Two in-process shards behind a router, torn down reliably."""

    def __init__(self, n_shards: int = 2, store_root=None, **server_kwargs):
        # With ``store_root`` each shard owns a store directory of its own,
        # as ``repro serve --shards N --store-dir`` lays them out.
        self.servers = [
            ColoringServer(port=0, **server_kwargs) if store_root is None
            else ColoringServer(
                port=0, storage=StorageConfig(store_dir=store_root / str(k)),
                **server_kwargs,
            )
            for k in range(n_shards)
        ]
        self.router: ShardRouter | None = None

    async def __aenter__(self) -> "_Cluster":
        addresses = [await server.start() for server in self.servers]
        self.router = ShardRouter(addresses, port=0)
        await self.router.start()
        return self

    async def __aexit__(self, *exc) -> None:
        if self.router is not None:
            await self.router.close()
        for server in self.servers:
            await server.close()

    @property
    def port(self) -> int:
        assert self.router is not None
        return self.router.port

    def shard_of(self, graph, config: SolverConfig) -> int:
        """The shard index a solve for (graph, config) routes to —
        computed exactly as the router does, from the cache digest."""
        assert self.router is not None
        digest = request_fingerprint(graph, config.without_observer())
        return self.router._shard_for_digest(digest)


class TestRoutedSolve:
    def test_bit_identical_and_cached_on_owner_shard(self):
        graphs = [random_regular_graph(48, 3, seed=s) for s in range(4)]
        config = SolverConfig(algorithm="auto", seed=1)

        async def drive():
            async with _Cluster() as cluster:
                # the acceptance bar: routed solves bit-identical to the
                # same requests against one single-process server
                reference = ColoringServer(port=0)
                await reference.start()
                try:
                    async with AsyncColoringClient(port=reference.port) as ref:
                        single = [
                            await ref.solve(g, algorithm="auto", seed=1)
                            for g in graphs
                        ]
                    async with AsyncColoringClient(port=cluster.port) as client:
                        assert await client.ping()
                        first = [
                            await client.solve(g, algorithm="auto", seed=1)
                            for g in graphs
                        ]
                        replay = [
                            await client.solve(g, algorithm="auto", seed=1)
                            for g in graphs
                        ]
                finally:
                    await reference.close()
                expected_shards = [
                    cluster.shard_of(g, config) for g in graphs
                ]
                per_shard_hits = [
                    server.gateway.cache.stats()["cache"]["hits"]
                    for server in cluster.servers
                ]
                return single, first, replay, expected_shards, per_shard_hits

        single, first, replay, expected_shards, per_shard_hits = asyncio.run(
            drive()
        )
        for graph, reply, reference in zip(graphs, first, single):
            assert not reply.cached
            assert list(reply.result.colors) == list(reference.result.colors)
            assert (
                reply.result.content_digest()
                == reference.result.content_digest()
            )
            assert reply.fingerprint == reference.fingerprint
            validate_coloring(
                graph, list(reply.result.colors),
                max_colors=reply.result.palette,
            )
        # dup requests route to the same (owner) shard and hit its cache
        assert all(r.cached for r in replay)
        for shard in range(2):
            owned = sum(1 for s in expected_shards if s == shard)
            assert per_shard_hits[shard] == owned

    def test_protocol_error_and_unknown_op(self):
        async def drive():
            async with _Cluster() as cluster:
                reader, writer = await asyncio.open_connection(
                    port=cluster.port
                )

                async def ask(obj):
                    writer.write((json.dumps(obj) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                bad_op = await asyncio.wait_for(ask({"op": "wat", "id": 1}), 30)
                bad_graph = await asyncio.wait_for(
                    ask({"id": 2, "op": "solve", "graph": {"edges": "nope"}}),
                    30,
                )
                ping = await asyncio.wait_for(ask({"op": "ping", "id": 3}), 30)
                writer.close()
                await writer.wait_closed()
                return bad_op, bad_graph, ping

        bad_op, bad_graph, ping = asyncio.run(drive())
        assert not bad_op["ok"] and bad_op["error"]["type"] == "protocol"
        assert not bad_graph["ok"] and bad_graph["error"]["type"] == "protocol"
        assert ping["ok"] and ping["pong"] and ping["shards"] == 2

    def test_overload_surfaces_through_router(self):
        graphs = [random_regular_graph(256, 3, seed=s) for s in range(8)]

        async def drive():
            async with _Cluster(
                max_queue=1, max_batch=1, max_wait_s=0.0
            ) as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    return await asyncio.wait_for(
                        asyncio.gather(
                            *(client.solve(g, validate=False, seed=0)
                              for g in graphs),
                            return_exceptions=True,
                        ),
                        timeout=60,
                    )

        outcomes = asyncio.run(drive())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert rejected, "burst past max_queue=1 must shed load"
        assert served, "admitted requests must still complete"
        assert len(rejected) + len(served) == len(graphs)


class TestRoutedUpdates:
    def test_chain_never_crosses_shards(self):
        base, matching = updatable_instance()
        config = SolverConfig(seed=1)

        async def drive():
            async with _Cluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    solved = await client.solve(base, seed=1)
                    upd1 = await client.update(
                        solved.fingerprint, edges_added=[matching[0]]
                    )
                    upd2 = await client.update(
                        upd1.fingerprint,
                        edges_added=[matching[1]],
                        edges_removed=[matching[0]],
                    )
                    replay = await client.update(
                        solved.fingerprint, edges_added=[matching[0]]
                    )
                owner = cluster.shard_of(base, config)
                chains = [
                    server.gateway.cache.stats()["graph_store"]["chains"]
                    for server in cluster.servers
                ]
                return solved, upd1, upd2, replay, owner, chains

        solved, upd1, upd2, replay, owner, chains = asyncio.run(drive())
        assert upd1.parent_digest == solved.fingerprint
        assert upd2.parent_digest == upd1.fingerprint
        assert replay.cached
        assert replay.result.content_digest() == upd1.result.content_digest()
        child = base.apply_updates(added=[matching[0]])
        validate_coloring(
            child, list(upd1.result.colors), max_colors=upd1.result.palette
        )
        # the whole chain's engines live on the shard that owns the root
        # solve digest; the other shard never saw an update
        assert chains[owner] >= 1
        assert chains[1 - owner] == 0

    def test_stale_parent_is_typed_and_fallback_reseeds(self):
        base, matching = updatable_instance()

        async def drive():
            async with _Cluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    with pytest.raises(StaleParentError):
                        await client.update("d" * 64, edges_added=[matching[0]])
                    # the client's existing recovery works unchanged
                    # through the router: re-solve the applied child,
                    # then chain off the re-seeded parent
                    reseeded = await client.update(
                        "d" * 64,
                        edges_added=[matching[0]],
                        fallback_graph=base,
                    )
                    assert reseeded.update is None
                    chained = await client.update(
                        reseeded.fingerprint, edges_added=[matching[1]]
                    )
                    assert chained.parent_digest == reseeded.fingerprint

        asyncio.run(drive())


class TestDeadShard:
    def test_dead_shard_answers_overloaded_and_survivors_serve(self):
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(12)]
        config = SolverConfig(seed=0)

        async def drive():
            async with _Cluster() as cluster:
                dead = 0
                await cluster.servers[dead].close()
                on_dead = [g for g in graphs
                           if cluster.shard_of(g, config) == dead]
                on_live = [g for g in graphs
                           if cluster.shard_of(g, config) != dead]
                assert on_dead and on_live, "need traffic for both arcs"
                async with AsyncColoringClient(port=cluster.port) as client:
                    dead_outcomes = await asyncio.gather(
                        *(client.solve(g, seed=0) for g in on_dead),
                        return_exceptions=True,
                    )
                    live_replies = [
                        await client.solve(g, seed=0) for g in on_live
                    ]
                return dead_outcomes, live_replies, cluster.router.unavailable

        dead_outcomes, live_replies, unavailable = asyncio.run(drive())
        # the dead arc sheds with the retriable overloaded type — the
        # supervisor (not present here) is what restarts it
        assert all(
            isinstance(o, ServiceOverloadedError) for o in dead_outcomes
        )
        assert unavailable == len(dead_outcomes)
        # the surviving shard's arc is completely unaffected
        for graph, reply in zip(
            [g for g in live_replies], live_replies
        ):
            assert reply.result.palette >= 1
        assert len(live_replies) > 0

    def test_update_shard_repoints_the_link(self):
        base, matching = updatable_instance()

        async def drive():
            async with _Cluster() as cluster:
                config = SolverConfig(seed=1)
                owner = cluster.shard_of(base, config)
                # move the owner's traffic onto a fresh replacement server
                replacement = ColoringServer(port=0)
                address = await replacement.start()
                try:
                    await cluster.servers[owner].close()
                    cluster.router.update_shard(owner, address)
                    async with AsyncColoringClient(port=cluster.port) as client:
                        reply = await client.solve(base, seed=1)
                    return reply, replacement.gateway.metrics.completed
                finally:
                    await replacement.close()

        reply, completed = asyncio.run(drive())
        assert reply.result.palette >= 1
        assert completed == 1  # the replacement served the owner's arc


class TestAggregatedStats:
    def test_cluster_snapshot_keeps_single_server_shape(self):
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(3)]

        async def drive():
            async with _Cluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    for g in graphs:
                        await client.solve(g, seed=0)
                    await client.solve(graphs[0], seed=0)  # one cache hit
                    return await client.stats()

        stats = asyncio.run(drive())
        # the single-server shape tooling reads (bench harness, smokes)
        assert stats["metrics"]["completed"] == 4
        assert stats["metrics"]["cached"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["puts"] == 3
        assert stats["graph_store"]["entries"] >= 3
        assert "latency" in stats["metrics"]
        assert stats["metrics"]["latency"]["count"] == 4
        # plus the cluster-only sections
        assert stats["router"]["shards"] == 2
        assert stats["router"]["alive"] == 2
        assert stats["router"]["routed"]["solve"] == 4
        assert sum(stats["router"]["per_shard"]) == 4
        assert len(stats["shards"]) == 2
        assert all(s["alive"] for s in stats["shards"])

    def test_durable_fleet_cache_counts_are_the_shards_sums(self, tmp_path):
        """With a store directory each shard's ``cache`` section is as flat
        as a memory-only one, so the fleet's counts are the shards' sums
        (a nested durable section once merged to all zeros)."""
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(3)]

        async def drive():
            async with _Cluster(store_root=tmp_path) as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    for g in graphs + graphs[:2]:
                        await client.solve(g, seed=0)
                    return await client.stats()

        stats = asyncio.run(drive())
        assert all(s["storage"]["durable"] for s in stats["shards"])
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (2, 3)
        assert stats["cache"]["puts"] == 3
        shards = [s["cache"] for s in stats["shards"]]
        for key in ("hits", "misses", "puts", "entries", "bytes"):
            assert stats["cache"][key] == sum(s[key] for s in shards)
        assert stats["cache"]["hit_rate"] == 0.4
        assert stats["graph_store"]["entries"] == 3

    def test_fleet_latency_comes_from_the_merged_histograms(self):
        # Shard 0 served 99 cache hits at 0.4 ms, shard 1 one 80 ms
        # solve.  Fleet p50/p99 are in the <=1 ms bucket, and the max is
        # in the <=100 ms one; no shard's own percentiles say that.
        hits, solve = ServiceMetrics(), ServiceMetrics()
        for _ in range(99):
            hits.record_request(0.0004, cached=True)
        solve.record_request(0.080, cached=False)
        shards = [hits, solve]
        router = ShardRouter([("127.0.0.1", 1), ("127.0.0.1", 2)])

        async def fan_out(op):
            if op == "stats":
                return [{"metrics": shard.snapshot()} for shard in shards]
            return [shard.registry.as_dict() for shard in shards]

        router._fan_out = fan_out
        reply = asyncio.run(router._aggregate_stats("s"))
        latency = reply["stats"]["metrics"]["latency"]
        assert latency["count"] == 100
        assert latency["p50_ms"] == 1.0
        assert latency["p99_ms"] == 1.0
        assert latency["max_ms"] == 100.0
        solved = reply["stats"]["metrics"]["latency_solved"]
        assert solved["count"] == 1 and solved["p50_ms"] == 100.0
        assert reply["stats"]["metrics"]["latency_coalesced"] == {"count": 0}

    def test_fleet_latency_count_matches_the_metrics_verb(self):
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(3)]

        async def drive():
            async with _Cluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    for g in graphs + graphs[:2]:
                        await client.solve(g, seed=0)
                    return await client.stats(), await client.metrics()

        stats, merged = asyncio.run(drive())
        histogram = merged["repro_request_latency_seconds"]
        merged_count = sum(series["count"] for series in histogram["values"])
        assert merged_count == 5
        assert stats["metrics"]["latency"]["count"] == merged_count

    def test_dead_shard_reported_not_fatal(self):
        async def drive():
            async with _Cluster() as cluster:
                await cluster.servers[1].close()
                async with AsyncColoringClient(port=cluster.port) as client:
                    return await client.stats()

        stats = asyncio.run(drive())
        assert stats["router"]["alive"] == 1
        dead = [s for s in stats["shards"] if not s["alive"]]
        assert len(dead) == 1 and "error" in dead[0]


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self):
        graph = random_regular_graph(512, 4, seed=7)

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            client = AsyncColoringClient(port=server.port)
            await client.connect()
            try:
                in_flight = asyncio.ensure_future(
                    client.solve(graph, seed=0, validate=False)
                )
                # the request is on the wire before shutdown begins
                await asyncio.sleep(0.05)
                await asyncio.wait_for(server.shutdown(drain_s=30.0), 60)
                reply = await asyncio.wait_for(in_flight, 10)
                # drained, not dropped: the reply arrived after shutdown
                assert reply.result.n == 512
                # ...and the listener is gone
                with pytest.raises(OSError):
                    await asyncio.open_connection(port=server.port)
            finally:
                await client.close()

        asyncio.run(drive())

    def test_shutdown_deadline_bounds_the_wait(self):
        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                # nothing in flight: shutdown is immediate even with a
                # generous drain budget
                await asyncio.wait_for(server.shutdown(drain_s=30.0), 5)
            finally:
                await server.close()  # idempotent

        asyncio.run(drive())

    def test_router_shutdown_closes_links(self):
        async def drive():
            async with _Cluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    await client.solve(
                        random_regular_graph(16, 3, seed=0), seed=0
                    )
                await asyncio.wait_for(cluster.router.shutdown(drain_s=5.0), 15)
                with pytest.raises(OSError):
                    await asyncio.open_connection(port=cluster.port)

        asyncio.run(drive())
