"""End-to-end observability: traces across the wire, metrics verb.

Real TCP throughout (the same in-process topology as
``tests/test_sharding.py``): a client request entering the router must
come out the far side as one connected span tree — router.request →
router.forward → server.request → gateway.* → solver.* — even though
the tiers hold separate :class:`Tracer` instances, and the ``metrics``
verb must serve one merged fleet snapshot through the router.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.harness import carve_matching
from repro.errors import ServiceProtocolError
from repro.graphs.generators import random_regular_graph
from repro.obs import Tracer
from repro.service import AsyncColoringClient, ColoringServer, ShardRouter


def _span_index(tracer: Tracer) -> dict[str, list[dict]]:
    index: dict[str, list[dict]] = {}
    for record in tracer.spans():
        index.setdefault(record["name"], []).append(record)
    return index


def updatable_instance(n=64, delta=4, slack=2, seed=0):
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, slack)
    return full.apply_updates(removed=matching), matching


class _TracedCluster:
    """Two traced in-process shards behind a traced router."""

    def __init__(self, router_sample: float = 1.0, shard_sample: float = 0.0):
        # Shards at sample=0 trace exactly the requests the router
        # sampled — the parent-based decision crossing the wire is the
        # point of the test.
        self.shard_tracers = [
            Tracer(sample=shard_sample, seed=10 + i) for i in range(2)
        ]
        self.router_tracer = Tracer(sample=router_sample, seed=99)
        self.servers = [
            ColoringServer(port=0, tracer=tracer)
            for tracer in self.shard_tracers
        ]
        self.router: ShardRouter | None = None

    async def __aenter__(self) -> "_TracedCluster":
        addresses = [await server.start() for server in self.servers]
        self.router = ShardRouter(addresses, port=0, tracer=self.router_tracer)
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


class TestSingleServerTracing:
    def test_solve_produces_a_connected_span_tree(self):
        graph = random_regular_graph(32, 3, seed=0)
        tracer = Tracer(seed=3)
        server = ColoringServer(port=0, tracer=tracer)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    first = await client.solve(graph, algorithm="auto", seed=1)
                    replay = await client.solve(graph, algorithm="auto", seed=1)
            finally:
                await server.close()
            return first, replay

        first, replay = asyncio.run(drive())
        assert not first.cached and replay.cached

        spans = _span_index(tracer)
        roots = spans["server.request"]
        assert len(roots) == 2
        assert [r["attrs"]["cached"] for r in roots] == [False, True]
        assert all(r["parent_id"] is None for r in roots)
        # both requests probed the cache; only the miss was admitted,
        # batched and solved
        assert len(spans["gateway.cache_probe"]) == 2
        assert [p["attrs"]["hit"] for p in spans["gateway.cache_probe"]] == [
            False, True,
        ]
        assert len(spans["gateway.admission"]) == 1
        (batch,) = spans["gateway.batch_execute"]
        assert batch["attrs"]["batch_size"] == 1
        solver_phases = [
            name for name in spans if name.startswith("solver.")
        ]
        assert solver_phases  # at least one phase span was synthesized
        # every span belongs to one of the two request trees and every
        # parent pointer resolves within its trace
        by_id = {r["span_id"]: r for rs in spans.values() for r in rs}
        for record in by_id.values():
            assert record["trace_id"] in {r["trace_id"] for r in roots}
            if record["parent_id"] is not None:
                parent = by_id[record["parent_id"]]
                assert parent["trace_id"] == record["trace_id"]
                # children start no earlier than their parent (emitted
                # phase spans are offset from the parent's start)
                assert record["start_s"] >= parent["start_s"] - 1e-6

    def test_one_solver_span_per_phase_stats_entry(self):
        """A phase that charged 0 rounds still ran and has a wall time,
        so it gets its span too (with ``rounds`` 0); on this instance
        three of the ten phases charge nothing."""
        graph = random_regular_graph(32, 3, seed=0)
        tracer = Tracer(seed=7)
        server = ColoringServer(port=0, tracer=tracer)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    return await client.solve(graph, algorithm="auto", seed=1)
            finally:
                await server.close()

        result = asyncio.run(drive()).result
        assert set(result.phase_rounds) < set(result.phase_stats)
        spans = _span_index(tracer)
        (batch,) = spans["gateway.batch_execute"]
        phase_spans = {
            name.removeprefix("solver."): records
            for name, records in spans.items()
            if name.startswith("solver.")
        }
        assert set(phase_spans) == set(result.phase_stats)
        for phase, records in phase_spans.items():
            (record,) = records
            assert record["parent_id"] == batch["span_id"]
            assert record["attrs"]["rounds"] == result.phase_rounds.get(phase, 0)

    def test_update_emits_repair_rung_spans(self):
        parent_graph, matching = updatable_instance()
        tracer = Tracer(seed=4)
        server = ColoringServer(port=0, tracer=tracer)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    solved = await client.solve(
                        parent_graph, algorithm="auto", seed=1
                    )
                    return await client.update(
                        solved.fingerprint, edges_added=[matching[0]]
                    )
            finally:
                await server.close()

        reply = asyncio.run(drive())
        spans = _span_index(tracer)
        (apply_span,) = spans["gateway.update_apply"]
        assert "full_resolve" in apply_span["attrs"]
        # one repair.<rung> child per rung the engine charged wall time to
        charged = set((reply.update or {}).get("rung_wall_s", {}))
        emitted = {
            name.removeprefix("repair.")
            for name in spans
            if name.startswith("repair.")
        }
        assert emitted == charged
        for name in emitted:
            (rung,) = spans[f"repair.{name}"]
            assert rung["parent_id"] == apply_span["span_id"]

    def test_hit_path_layers_are_measured_children(self):
        """``server.request`` starts before the decode; its first
        children are the measured decode, parse and fingerprint, laid
        end to end in that order inside it."""
        graph = random_regular_graph(32, 3, seed=0)
        tracer = Tracer(seed=6)
        server = ColoringServer(port=0, tracer=tracer)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    solved = await client.solve(graph, algorithm="auto", seed=1)
                    await client.solve(graph, algorithm="auto", seed=1)
                    await client.update(solved.fingerprint)
            finally:
                await server.close()

        asyncio.run(drive())
        spans = _span_index(tracer)
        roots = {r["span_id"]: r for r in spans["server.request"]}
        assert [r["attrs"]["op"] for r in roots.values()] == ["solve", "solve", "update"]
        layers = ("server.decode", "server.parse", "fingerprint")
        for root in roots.values():
            children = [
                record
                for name in layers
                for record in spans.get(name, ())
                if record["parent_id"] == root["span_id"]
            ]
            expected = layers if root["attrs"]["op"] == "solve" else layers[:2]
            assert tuple(c["name"] for c in children) == expected
            end = root["start_s"] + root["duration_s"]
            at = root["start_s"]
            for child in children:
                assert child["start_s"] >= at - 1e-5  # records round to 1 µs
                at = child["start_s"] + child["duration_s"]
            assert at <= end + 1e-5

    def test_sampling_off_records_nothing(self):
        graph = random_regular_graph(32, 3, seed=0)
        tracer = Tracer(sample=0.0, seed=5)
        server = ColoringServer(port=0, tracer=tracer)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    return await client.solve(graph, algorithm="auto", seed=1)
            finally:
                await server.close()

        reply = asyncio.run(drive())
        assert reply.result.palette >= 1
        assert tracer.stats()["finished"] == 0


class TestCrossTierTracing:
    def test_trace_context_propagates_router_to_shard(self):
        graph = random_regular_graph(32, 3, seed=0)

        async def drive():
            async with _TracedCluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    await client.solve(graph, algorithm="auto", seed=1)
                return cluster

        cluster = asyncio.run(drive())
        router_spans = _span_index(cluster.router_tracer)
        (root,) = router_spans["router.request"]
        (forward,) = router_spans["router.forward"]
        assert root["parent_id"] is None
        assert forward["parent_id"] == root["span_id"]
        assert forward["trace_id"] == root["trace_id"]

        # exactly one shard continued the trace (local sample=0 — the
        # remote parent forced it on), linked under the forward span
        shard_spans = [
            _span_index(t) for t in cluster.shard_tracers if t.spans()
        ]
        assert len(shard_spans) == 1
        (server_root,) = shard_spans[0]["server.request"]
        assert server_root["trace_id"] == root["trace_id"]
        assert server_root["parent_id"] == forward["span_id"]
        # gateway work hangs off the continued span in the same trace
        assert all(
            record["trace_id"] == root["trace_id"]
            for records in shard_spans[0].values()
            for record in records
        )
        assert "gateway.batch_execute" in shard_spans[0]

    def test_router_sample_zero_traces_nothing_anywhere(self):
        graph = random_regular_graph(32, 3, seed=0)

        async def drive():
            async with _TracedCluster(router_sample=0.0) as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    await client.solve(graph, algorithm="auto", seed=1)
                return cluster

        cluster = asyncio.run(drive())
        assert cluster.router_tracer.stats()["finished"] == 0
        assert all(t.stats()["finished"] == 0 for t in cluster.shard_tracers)


class TestMetricsVerb:
    def test_single_server_metrics_json_and_prometheus(self):
        graph = random_regular_graph(32, 3, seed=0)
        server = ColoringServer(port=0)

        async def drive():
            await server.start()
            try:
                async with AsyncColoringClient(port=server.port) as client:
                    await client.solve(graph, algorithm="auto", seed=1)
                    await client.solve(graph, algorithm="auto", seed=1)
                    snapshot = await client.metrics()
                    text = await client.metrics(format="prometheus")
                    with pytest.raises(ServiceProtocolError):
                        await client.metrics(format="xml")
            finally:
                await server.close()
            return snapshot, text

        snapshot, text = asyncio.run(drive())
        requests = {
            tuple(series["labels"]): series["value"]
            for series in snapshot["repro_requests_total"]["values"]
        }
        assert requests[("solved",)] == 1
        assert requests[("cached",)] == 1
        assert "process_resident_memory_bytes" in snapshot
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{outcome="cached"} 1' in text
        assert "# TYPE repro_request_latency_seconds histogram" in text

    def test_router_metrics_merge_the_fleet(self):
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(4)]

        async def drive():
            async with _TracedCluster() as cluster:
                async with AsyncColoringClient(port=cluster.port) as client:
                    for graph in graphs:
                        await client.solve(graph, algorithm="auto", seed=1)
                    merged = await client.metrics()
                    text = await client.metrics(format="prometheus")
                shard_totals = [
                    server.gateway.metrics.completed
                    for server in cluster.servers
                ]
                return merged, text, shard_totals

        merged, text, shard_totals = asyncio.run(drive())
        # the merged fleet view sums what the individual shards served
        fleet_completed = sum(
            series["value"]
            for series in merged["repro_requests_total"]["values"]
        )
        assert fleet_completed == sum(shard_totals) == len(graphs)
        # the router's own tier shows up alongside the shards'
        routed = {
            tuple(series["labels"]): series["value"]
            for series in merged["repro_router_requests_total"]["values"]
        }
        assert routed[("solve",)] == len(graphs)
        assert routed[("metrics",)] >= 1
        up = {
            tuple(series["labels"]): series["value"]
            for series in merged["repro_router_shard_up"]["values"]
        }
        assert up == {("0",): 1, ("1",): 1}
        assert "# TYPE repro_router_requests_total counter" in text
