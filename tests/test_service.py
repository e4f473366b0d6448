"""Tests for the repro.service subsystem.

Covers the four layers separately (fingerprint, store, metrics, gateway)
plus the TCP server/client round-trip, with small graphs throughout so
the suite stays tier-1-fast.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import ColoringResult, SolverConfig, solve
from repro.core.randomized import RandomizedParams
from repro.errors import (
    GraphError,
    NotNiceGraphError,
    ServiceOverloadedError,
    ServiceProtocolError,
)
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_coloring
from repro.service import (
    AsyncColoringClient,
    BatchingGateway,
    ColoringClient,
    ColoringServer,
    MemoryStore,
    ServiceMetrics,
    config_fingerprint,
    graph_fingerprint,
    request_fingerprint,
)
from repro.service.storage.memory import estimate_result_nbytes
from repro.service.metrics import percentile
from repro.service.server import config_from_payload, graph_from_payload


def _result(n=4, seed=0, tag="x") -> ColoringResult:
    return ColoringResult(
        algorithm=f"test-{tag}",
        n=n,
        delta=2,
        palette=3,
        colors=tuple((i % 3) + 1 for i in range(n)),
        rounds=5,
        seed=seed,
    )


class TestFingerprint:
    def test_stable_across_calls(self):
        g = random_regular_graph(32, 3, seed=1)
        assert graph_fingerprint(g) == graph_fingerprint(g)

    def test_invariant_under_edge_order_and_orientation(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        a = Graph(4, edges)
        b = Graph(4, [(v, u) for u, v in reversed(edges)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_different_structure_differs(self):
        assert graph_fingerprint(Graph(4, [(0, 1), (2, 3)])) != graph_fingerprint(
            Graph(4, [(0, 2), (1, 3)])
        )

    def test_isolated_node_count_matters(self):
        assert graph_fingerprint(Graph(3, [(0, 1)])) != graph_fingerprint(
            Graph(2, [(0, 1)])
        )

    def test_config_result_affecting_fields_only(self):
        base = SolverConfig(algorithm="randomized", seed=1)
        assert config_fingerprint(base) == config_fingerprint(
            base.replace(validate=False)
        )
        assert config_fingerprint(base) == config_fingerprint(
            base.replace(on_phase=lambda *a: None)
        )
        assert config_fingerprint(base) == config_fingerprint(
            base.replace(strict=True)
        )
        # strict inside params must not fragment the cache either
        with_params = base.replace(params=RandomizedParams(seed=1))
        assert config_fingerprint(with_params) == config_fingerprint(
            base.replace(params=RandomizedParams(seed=1, strict=True))
        )
        assert config_fingerprint(base) != config_fingerprint(base.replace(seed=2))
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(algorithm="ps")
        )
        assert config_fingerprint(base) != config_fingerprint(
            base.replace(params=RandomizedParams(seed=1))
        )

    def test_request_fingerprint_combines_both(self):
        g1 = random_regular_graph(16, 3, seed=1)
        g2 = random_regular_graph(16, 3, seed=2)
        c = SolverConfig(seed=0)
        assert request_fingerprint(g1, c) != request_fingerprint(g2, c)
        assert request_fingerprint(g1, c) != request_fingerprint(
            g1, c.replace(seed=5)
        )

    def test_order_preserving_relabeling_via_payload_compaction(self):
        """Sparse payload ids compact to the same internal graph."""
        dense, ids_dense = graph_from_payload({"edges": [[0, 1], [1, 2]]})
        sparse, ids_sparse = graph_from_payload({"edges": [[10, 500], [500, 7000]]})
        assert graph_fingerprint(dense) == graph_fingerprint(sparse)
        assert ids_dense is None
        assert ids_sparse == [10, 500, 7000]


class TestResultCache:
    """The result kind of :class:`MemoryStore` (the ``cache`` section)."""

    def test_roundtrip_and_counters(self):
        cache = MemoryStore(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", _result())
        assert cache.get("a") == _result()
        stats = cache.stats()["cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["evictions_ttl"] == 0

    def test_lru_eviction_order(self):
        cache = MemoryStore(max_entries=2)
        cache.put("a", _result(tag="a"))
        cache.put("b", _result(tag="b"))
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", _result(tag="c"))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["cache"]["evictions_lru"] == 1

    def test_byte_bound_evicts(self):
        small = _result(n=4)
        per_entry = estimate_result_nbytes(small)
        cache = MemoryStore(max_entries=100, max_bytes=int(per_entry * 2.5))
        for key in ("a", "b", "c", "d"):
            cache.put(key, _result(n=4, tag=key))
        stats = cache.stats()["cache"]
        assert stats["entries"] == 2
        assert stats["bytes"] <= per_entry * 2.5
        assert stats["evictions_lru"] == 2

    def test_byte_accounting_tracks_entries(self):
        cache = MemoryStore(max_entries=8)
        cache.put("a", _result(n=4))
        one = cache.stats()["cache"]["bytes"]
        cache.put("b", _result(n=400))
        assert cache.stats()["cache"]["bytes"] > one
        cache.put("a", _result(n=4))  # refresh does not double-count
        assert cache.stats()["cache"]["entries"] == 2
        cache.clear()
        assert cache.stats()["cache"]["bytes"] == 0 and len(cache) == 0


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        # odd-length windows: nearest-rank p50 is the true median (ceil,
        # not banker's round, of the half-rank)
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
        assert percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_snapshot_shape(self):
        clock = [0.0]
        metrics = ServiceMetrics(clock=lambda: clock[0])
        clock[0] = 2.0
        metrics.record_request(0.010, cached=False)
        metrics.record_request(0.001, cached=True)
        metrics.record_error("overloaded")
        metrics.record_batch(2)
        metrics.set_queue_depth(3)
        metrics.set_queue_depth(1)
        snap = metrics.snapshot()
        assert snap["completed"] == 2 and snap["cached"] == 1
        assert snap["rejected"] == 1
        assert snap["qps"] == 1.0  # 2 requests / 2 s
        assert snap["cache_hit_rate"] == 0.5
        assert snap["queue_depth"] == 1 and snap["queue_depth_peak"] == 3
        assert snap["latency"]["p50_ms"] in (1.0, 10.0)
        assert snap["mean_batch_size"] == 2.0


class TestGateway:
    def test_cache_hit_and_bit_identity(self):
        graph = random_regular_graph(32, 3, seed=1)
        config = SolverConfig(algorithm="auto", seed=2)

        async def main():
            async with BatchingGateway() as gateway:
                first = await gateway.submit(graph, config)
                second = await gateway.submit(graph, config)
                return first, second

        first, second = asyncio.run(main())
        assert not first.cached and second.cached
        assert first.fingerprint == second.fingerprint
        assert first.result.content_digest() == second.result.content_digest()
        fresh = solve(graph, config)
        assert fresh.as_dict()["colors"] == list(first.result.colors)

    def test_coalesces_concurrent_duplicates(self):
        graph = random_regular_graph(64, 3, seed=3)
        config = SolverConfig(seed=0)

        async def main():
            async with BatchingGateway() as gateway:
                replies = await asyncio.gather(
                    *(gateway.submit(graph, config) for _ in range(4))
                )
                return gateway, replies

        gateway, replies = asyncio.run(main())
        digests = {r.result.content_digest() for r in replies}
        assert len(digests) == 1
        assert gateway.coalesced >= 1
        # only one actual solve happened
        assert gateway.cache.stats()["cache"]["puts"] == 1

    def test_rejects_when_queue_full_without_hanging(self):
        graphs = [random_regular_graph(128, 3, seed=s) for s in range(10)]
        config = SolverConfig(seed=0, validate=False)

        async def main():
            async with BatchingGateway(max_queue=2, max_batch=2) as gateway:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(gateway.submit(g, config) for g in graphs),
                        return_exceptions=True,
                    ),
                    timeout=60,
                )
                return gateway, outcomes

        gateway, outcomes = asyncio.run(main())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert rejected and served
        assert len(rejected) + len(served) == len(graphs)
        assert gateway.metrics.rejected == len(rejected)

    def test_follower_bound_sheds_duplicate_floods(self):
        """Coalesced waiters are bounded too: a flood of duplicates of one
        slow in-flight request is shed past max_followers."""
        graph = random_regular_graph(2048, 4, seed=11)
        config = SolverConfig(seed=0, validate=False)

        async def main():
            async with BatchingGateway(max_queue=4, max_followers=3) as gateway:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(gateway.submit(graph, config) for _ in range(10)),
                        return_exceptions=True,
                    ),
                    timeout=120,
                )
                return gateway, outcomes

        gateway, outcomes = asyncio.run(main())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(served) >= 1 and len(rejected) >= 1
        assert len(served) + len(rejected) == 10
        # one solve served every non-rejected duplicate
        assert gateway.cache.stats()["cache"]["puts"] == 1
        digests = {o.result.content_digest() for o in served}
        assert len(digests) == 1

    def test_engine_error_does_not_poison_gateway(self):
        bad = complete_graph(5)
        good = random_regular_graph(32, 3, seed=1)

        async def main():
            async with BatchingGateway() as gateway:
                with pytest.raises(NotNiceGraphError) as excinfo:
                    await gateway.submit(bad, SolverConfig(algorithm="randomized"))
                reply = await gateway.submit(good, SolverConfig())
                return excinfo.value, reply, gateway.metrics.failed

        error, reply, failed = asyncio.run(main())
        assert type(error).__name__ == "NotNiceGraphError"
        assert reply.result.palette == 3
        assert failed == 1

    def test_micro_batches_form_under_concurrency(self):
        graphs = [random_regular_graph(96, 3, seed=s) for s in range(6)]
        config = SolverConfig(seed=0, validate=False)

        async def main():
            async with BatchingGateway(max_batch=4, max_wait_s=0.05) as gateway:
                await asyncio.gather(*(gateway.submit(g, config) for g in graphs))
                return gateway.metrics.batches, gateway.metrics.batched_requests

        batches, batched = asyncio.run(main())
        assert batched == len(graphs)
        assert batches < len(graphs)  # at least one multi-request batch formed


class TestProtocolParsing:
    def test_graph_payload_with_n(self):
        graph, ids = graph_from_payload({"n": 5, "edges": [[0, 1], [3, 4]]})
        assert graph.n == 5 and graph.num_edges == 2 and ids is None

    def test_graph_payload_rejects_garbage(self):
        with pytest.raises(ServiceProtocolError):
            graph_from_payload({"edges": "nope"})
        with pytest.raises(ServiceProtocolError):
            graph_from_payload({"edges": [[0, 1, 2]]})
        # arity errors that cancel out in total length must not re-pair
        with pytest.raises(ServiceProtocolError):
            graph_from_payload({"edges": [[0, 1, 2], [3]]})
        with pytest.raises(ServiceProtocolError):
            graph_from_payload({"edges": [7, 8]})
        with pytest.raises(ServiceProtocolError):
            graph_from_payload({"n": -1, "edges": []})
        with pytest.raises(GraphError):
            graph_from_payload({"n": 3, "edges": [[0, 0]]})
        with pytest.raises(GraphError):
            graph_from_payload({"n": 3, "edges": [[0, 1], [1, 0]]})

    def test_config_payload(self):
        config = config_from_payload(
            {"algorithm": "ps", "seed": 4, "params": {"backoff": 7}}
        )
        assert config.algorithm == "ps" and config.seed == 4
        assert config.params.backoff == 7
        assert config_from_payload(None) == SolverConfig()
        with pytest.raises(ServiceProtocolError):
            config_from_payload({"nope": 1})
        with pytest.raises(ServiceProtocolError):
            config_from_payload({"params": {"nope": 1}})


class TestServerClient:
    def test_tcp_roundtrip_sync_and_async(self):
        graph = random_regular_graph(48, 3, seed=5)

        async def main():
            server = ColoringServer(port=0, max_queue=16)
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    assert await client.ping()
                    first = await client.solve(graph, algorithm="auto", seed=1)
                    second = await client.solve(graph, algorithm="auto", seed=1)
                    stats = await client.stats()

                def sync_calls():
                    with ColoringClient(port=server.port) as sync_client:
                        return sync_client.solve(
                            {"edges": [[10, 20], [20, 30]]}, algorithm="greedy"
                        )

                relabeled = await asyncio.get_running_loop().run_in_executor(
                    None, sync_calls
                )
                return first, second, stats, relabeled
            finally:
                await server.close()

        first, second, stats, relabeled = asyncio.run(main())
        assert not first.cached and second.cached
        assert first.result.content_digest() == second.result.content_digest()
        validate_coloring(graph, list(first.result.colors), max_colors=first.result.palette)
        # the wire schema round-trips into a real, equal ColoringResult
        assert ColoringResult.from_dict(first.result.as_dict()) == first.result
        assert first.result.as_dict()["colors"] == list(
            solve(graph, SolverConfig(algorithm="auto", seed=1)).colors
        )
        assert stats["metrics"]["completed"] >= 2
        assert stats["cache"]["hits"] >= 1
        assert relabeled.node_ids == [10, 20, 30]
        assert len(relabeled.result.colors) == 3

    def test_server_reports_protocol_engine_and_overload_errors(self):
        async def main():
            server = ColoringServer(
                port=0, max_queue=1, max_batch=1, max_wait_s=0.0
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(port=server.port)

                async def ask(obj):
                    writer.write((json.dumps(obj) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                bad_json = await asyncio.wait_for(ask({"op": "wat", "id": 1}), 30)
                engine = await asyncio.wait_for(
                    ask(
                        {
                            "id": 2,
                            "op": "solve",
                            "graph": {
                                "n": 4,
                                "edges": [
                                    [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
                                ],
                            },
                            "config": {"algorithm": "deterministic"},
                        }
                    ),
                    60,
                )
                writer.close()
                await writer.wait_closed()
                return bad_json, engine
            finally:
                await server.close()

        bad_json, engine = asyncio.run(main())
        assert not bad_json["ok"] and bad_json["error"]["type"] == "protocol"
        assert not engine["ok"] and engine["error"]["type"] == "engine"

    def test_overload_surfaces_as_overloaded_error(self):
        graphs = [random_regular_graph(256, 3, seed=s) for s in range(8)]

        async def main():
            server = ColoringServer(
                port=0, max_queue=1, max_batch=1, max_wait_s=0.0
            )
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    outcomes = await asyncio.wait_for(
                        asyncio.gather(
                            *(
                                client.solve(g, validate=False, seed=0)
                                for g in graphs
                            ),
                            return_exceptions=True,
                        ),
                        timeout=60,
                    )
                return outcomes
            finally:
                await server.close()

        outcomes = asyncio.run(main())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert rejected, "burst past max_queue=1 must shed load"
        assert served, "admitted requests must still complete"
        assert len(rejected) + len(served) == len(graphs)


class TestCLI:
    def test_serve_subcommand_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--max-queue", "7", "--cache-entries", "5"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_queue == 7 and args.cache_entries == 5
        # one store, two bounds: the TTL and the graph-store bound are gone
        for flag in ("--cache-ttl", "--graph-store-entries"):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", flag, "5"])
