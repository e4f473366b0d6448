"""Tests for the service's graph-stream surface.

Covers the version-chained update fingerprints, the graph kinds of the
:class:`MemoryStore`,
cost-aware admission in the gateway, and the ``update`` verb end to end
(gateway-level and over TCP), with small graphs throughout so the suite
stays tier-1-fast.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.harness import carve_matching
from repro.api import SolverConfig
from repro.errors import (
    EdgeAlreadyPresentError,
    EdgeNotPresentError,
    IncrementalUpdateError,
    ServiceOverloadedError,
    ServiceProtocolError,
    StaleParentError,
)
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_coloring
from repro.service import (
    BatchingGateway,
    ColoringClient,
    ColoringServer,
    MemoryStore,
    config_fingerprint,
    request_fingerprint,
    update_fingerprint,
)
from repro.service.batcher import DEFAULT_MAX_COST, request_cost


def updatable_instance(n=64, delta=4, slack=4, seed=0):
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, slack)
    return full.apply_updates(removed=matching), matching


class TestUpdateFingerprint:
    def test_deterministic_and_order_invariant(self):
        cfg = config_fingerprint(SolverConfig())
        a = update_fingerprint("p" * 64, [(0, 1), (2, 3)], [(4, 5)], cfg)
        b = update_fingerprint("p" * 64, [(3, 2), (0, 1)], [(5, 4)], cfg)
        assert a == b

    def test_delta_and_lineage_sensitive(self):
        cfg = config_fingerprint(SolverConfig())
        base = update_fingerprint("p" * 64, [(0, 1)], [], cfg)
        assert base != update_fingerprint("q" * 64, [(0, 1)], [], cfg)
        assert base != update_fingerprint("p" * 64, [(0, 2)], [], cfg)
        assert base != update_fingerprint("p" * 64, [], [(0, 1)], cfg)
        assert base != update_fingerprint(
            "p" * 64, [(0, 1)], [], config_fingerprint(SolverConfig(seed=7))
        )

    def test_out_of_range_ids_rejected_not_hashed(self):
        # (u << 32) | v is only injective below 2**31: without the range
        # check, [(0, 2**32 + 5)] would collide with [(1, 5)] and could
        # serve a cached child for a different delta.
        from repro.errors import ServiceProtocolError

        cfg = config_fingerprint(SolverConfig())
        for bad in ([(0, 2**32 + 5)], [(2**31, 0)], [(-1, 2)]):
            with pytest.raises(ServiceProtocolError):
                update_fingerprint("p" * 64, bad, [], cfg)
        ok = update_fingerprint("p" * 64, [(1, 5)], [], cfg)
        assert len(ok) == 64

    def test_disjoint_from_solve_keyspace(self):
        # An update digest must never collide with a content-addressed
        # solve digest: repaired colorings are valid but not bit-identical
        # to fresh solves of the same child graph.
        g = Graph(3, [(0, 1)])
        cfg = SolverConfig()
        solve_key = request_fingerprint(g, cfg)
        child_key = update_fingerprint(
            solve_key, [(1, 2)], [], config_fingerprint(cfg)
        )
        assert child_key != request_fingerprint(
            g.apply_updates(added=[(1, 2)]), cfg
        )


class TestGraphStore:
    """The graph kinds of :class:`MemoryStore` (the ``graph_store``
    section)."""

    def test_put_get_and_lru_eviction(self):
        store = MemoryStore(max_entries=2)
        graphs = [Graph(3, [(0, i % 2 + 1)]) for i in range(3)]
        for i, g in enumerate(graphs):
            store.put_graph(f"k{i}", g)
        assert store.get_graph("k0") is None  # least recently used, evicted
        stored = store.get_graph("k2")
        # a CSR-only view sharing the caller's buffers, not the caller's graph
        assert stored is not graphs[2] and stored.csr() == graphs[2].csr()
        assert stored.csr()[1] is graphs[2].csr()[1]
        assert store.stats()["graph_store"]["evictions"] == 1
        assert store.stats()["graph_store"]["evictions_graphs"] == 1

    def test_get_refreshes_recency(self):
        store = MemoryStore(max_entries=2)
        a, b, c = (Graph(2, [(0, 1)]) for _ in range(3))
        store.put_graph("a", a)
        store.put_graph("b", b)
        assert store.get_graph("a") is not None  # touch
        store.put_graph("c", c)
        assert store.get_graph("b") is None  # b was the stale one
        assert store.get_graph("a").csr() == a.csr()

    def test_byte_bound_evicts(self):
        big = random_regular_graph(256, 4, seed=0)
        store = MemoryStore(max_entries=64, max_bytes=3000)
        store.put_graph("a", big)
        store.put_graph("b", big)
        assert len(store) == 1  # each entry alone exceeds the bound


class TestGatewayUpdates:
    def test_update_chain_and_replay(self):
        base, matching = updatable_instance()

        async def drive():
            async with BatchingGateway(max_queue=8) as gateway:
                first = await gateway.submit(base, SolverConfig(seed=1))
                upd = await gateway.submit_update(
                    first.fingerprint, edges_added=[matching[0]]
                )
                assert upd.parent_digest == first.fingerprint
                assert not upd.cached
                child_graph = gateway.cache.get_graph(upd.fingerprint)
                assert child_graph is not None
                assert child_graph.has_edge(*matching[0])
                validate_coloring(
                    child_graph, list(upd.result.colors),
                    max_colors=upd.result.palette,
                )
                # chain a second update off the child
                upd2 = await gateway.submit_update(
                    upd.fingerprint, edges_added=[matching[1]],
                    edges_removed=[matching[0]],
                )
                assert upd2.parent_digest == upd.fingerprint
                # replaying the first delta hits the cache bit-identically
                replay = await gateway.submit_update(
                    first.fingerprint, edges_added=[matching[0]]
                )
                assert replay.cached
                assert (
                    replay.result.content_digest() == upd.result.content_digest()
                )
                assert replay.update.get("op") == "batch"

        asyncio.run(drive())

    def test_unknown_parent_raises_stale(self):
        async def drive():
            async with BatchingGateway() as gateway:
                with pytest.raises(StaleParentError):
                    await gateway.submit_update("0" * 64, edges_added=[(0, 1)])

        asyncio.run(drive())

    def test_rejected_delta_keeps_gateway_serving(self):
        base, matching = updatable_instance()

        async def drive():
            async with BatchingGateway() as gateway:
                first = await gateway.submit(base, SolverConfig(seed=1))
                with pytest.raises(EdgeNotPresentError):
                    await gateway.submit_update(
                        first.fingerprint, edges_removed=[matching[0]]
                    )
                # capacity was released; the gateway still serves
                upd = await gateway.submit_update(
                    first.fingerprint, edges_added=[matching[0]]
                )
                assert not upd.cached
                assert gateway.stats()["outstanding"] == 0
                assert gateway.stats()["outstanding_cost"] == 0

        asyncio.run(drive())


class TestCostAwareAdmission:
    def test_oversize_request_refused_even_when_idle(self):
        # A tiny frame may name a huge instance; its cost alone is over
        # the default bound, so the idle gateway refuses it, typed and
        # final, before the lazy factory builds anything.
        built = []

        def factory():
            built.append(True)
            return random_regular_graph(16, 3, seed=0)

        async def drive():
            async with BatchingGateway() as gateway:
                with pytest.raises(ServiceProtocolError) as refused:
                    await gateway.submit(
                        factory, SolverConfig(seed=0),
                        fingerprint="c" * 64, cost=request_cost(2**31 - 1, 0),
                    )
                assert "retry" not in str(refused.value)
                stats = gateway.stats()
                assert stats["outstanding"] == stats["outstanding_cost"] == 0
                assert gateway.metrics.snapshot()["errors"] == {"protocol": 1}

        asyncio.run(drive())
        assert built == []

    def test_lone_request_at_exactly_max_cost_is_admitted(self):
        graph = random_regular_graph(128, 4, seed=0)
        cost = request_cost(graph.n, graph.num_edges)

        async def drive():
            async with BatchingGateway(max_cost=cost) as gateway:
                reply = await gateway.submit(graph, SolverConfig(seed=0))
                assert reply.result.n == 128

        asyncio.run(drive())

    def test_tiny_frame_naming_a_huge_n_gets_a_typed_reply(self, monkeypatch):
        from repro.service.server import ParsedGraphPayload

        def no_build(self):
            raise AssertionError("the graph must not be built")

        monkeypatch.setattr(ParsedGraphPayload, "build", no_build)

        async def drive():
            # Built with no arguments: the default cost bound applies.
            server = ColoringServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(port=server.port)
                writer.write(
                    b'{"id":1,"graph":{"n":2147483647,"edges_b64":""}}\n'
                )
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), 60)
                writer.close()
                await writer.wait_closed()
                return json.loads(reply)
            finally:
                await server.close()

        reply = asyncio.run(drive())
        assert not reply["ok"]
        assert reply["error"]["type"] == "protocol"
        assert f"max_cost {DEFAULT_MAX_COST}" in reply["error"]["message"]

    def test_cost_bound_is_always_on(self):
        assert BatchingGateway().max_cost == DEFAULT_MAX_COST
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_cost"):
                BatchingGateway(max_cost=bad)

    def test_cost_bound_sheds_backlog(self):
        # One big in-flight instance fills max_cost; a second big one is
        # shed while a toy one still fits — admission meters work, not
        # request count.  The in-flight leader blocks on an event (lazy
        # factory) so occupancy is deterministic, not a timing race.
        import threading

        big = [random_regular_graph(512, 4, seed=s) for s in range(2)]
        toy = random_regular_graph(16, 3, seed=9)
        big_cost = 512 + big[0].num_edges
        release = threading.Event()

        def blocked_factory():
            release.wait(30)
            return big[0]

        async def drive():
            async with BatchingGateway(
                max_queue=16, max_cost=big_cost + 100, max_wait_s=0.0,
                max_batch=1,
            ) as gateway:
                config = SolverConfig(seed=0, validate=False)
                first = asyncio.ensure_future(
                    gateway.submit(
                        blocked_factory, config,
                        fingerprint="a" * 64, cost=big_cost,
                    )
                )
                while gateway.stats()["outstanding"] == 0:
                    await asyncio.sleep(0.001)
                with pytest.raises(ServiceOverloadedError):
                    await gateway.submit(big[1], config)
                toy_reply = await gateway.submit(toy, config)
                assert toy_reply.result.n == 16
                release.set()
                await first
                assert gateway.stats()["outstanding_cost"] == 0
                assert gateway.metrics.rejected == 1

        try:
            asyncio.run(drive())
        finally:
            release.set()

    def test_request_count_bound_still_applies(self):
        import threading

        toy = [random_regular_graph(12, 3, seed=s) for s in range(2)]
        release = threading.Event()

        def blocked_factory():
            release.wait(30)
            return toy[0]

        async def drive():
            async with BatchingGateway(
                max_queue=1, max_cost=10**9, max_wait_s=0.0, max_batch=1
            ) as gateway:
                config = SolverConfig(seed=0, validate=False)
                first = asyncio.ensure_future(
                    gateway.submit(
                        blocked_factory, config, fingerprint="b" * 64, cost=40,
                    )
                )
                while gateway.stats()["outstanding"] == 0:
                    await asyncio.sleep(0.001)
                with pytest.raises(ServiceOverloadedError):
                    await gateway.submit(toy[1], config)
                release.set()
                await first

        try:
            asyncio.run(drive())
        finally:
            release.set()


class TestUpdateOverTCP:
    def test_update_verb_roundtrip(self):
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        solved = client.solve(base, seed=1)
                        first = client.update(
                            solved.fingerprint, edges_added=[matching[0]]
                        )
                        assert first.parent_digest == solved.fingerprint
                        assert first.update["edges_added"] == 1
                        child = base.apply_updates(added=[matching[0]])
                        validate_coloring(
                            child, list(first.result.colors),
                            max_colors=first.result.palette,
                        )
                        replay = client.update(
                            solved.fingerprint, edges_added=[matching[0]]
                        )
                        assert replay.cached
                        with pytest.raises(StaleParentError):
                            client.update("f" * 64, edges_added=[[0, 1]])
                        with pytest.raises(IncrementalUpdateError):
                            client.update(
                                first.fingerprint, edges_added=[matching[0]]
                            )
                        stats = client.stats()
                        assert stats["graph_store"]["entries"] >= 2
                        return True

                ok = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                assert ok
            finally:
                await server.close()

        asyncio.run(drive())

    def test_stale_parent_fallback_resolves_and_reseeds(self):
        """update(fallback_graph=...) must turn a stale_parent error into
        a fresh solve of the locally-applied child and re-seed the chain:
        the reply's fingerprint is a valid parent for further updates."""
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        # unknown digest without a fallback still raises
                        with pytest.raises(StaleParentError):
                            client.update("e" * 64, edges_added=[matching[0]])
                        # a one-shot iterable must survive both the wire
                        # request and the local fallback delta
                        reseeded = client.update(
                            "e" * 64,
                            edges_added=(e for e in [matching[0]]),
                            fallback_graph=base,
                            seed=1,
                        )
                        # a re-solve, not a repair: no lineage fields
                        assert reseeded.update is None
                        assert reseeded.parent_digest is None
                        child = base.apply_updates(added=[matching[0]])
                        validate_coloring(
                            child, list(reseeded.result.colors),
                            max_colors=reseeded.result.palette,
                        )
                        # the chain continues off the re-seeded parent
                        chained = client.update(
                            reseeded.fingerprint, edges_added=[matching[1]]
                        )
                        assert chained.parent_digest == reseeded.fingerprint
                        grandchild = child.apply_updates(added=[matching[1]])
                        validate_coloring(
                            grandchild, list(chained.result.colors),
                            max_colors=chained.result.palette,
                        )
                        return True

                ok = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                assert ok
            finally:
                await server.close()

        asyncio.run(drive())

    def test_fallback_keeps_typed_delta_rejections(self):
        """An invalid delta must raise the same typed error whether the
        parent is cached (server-side rejection) or evicted (local
        fallback application)."""
        base, matching = updatable_instance()
        present = next(base.edges())

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        with pytest.raises(IncrementalUpdateError):
                            client.update(
                                "c" * 64,
                                edges_added=[present],
                                fallback_graph=base,
                            )
                        with pytest.raises(IncrementalUpdateError):
                            client.update(
                                "c" * 64,
                                edges_removed=[matching[0]],
                                fallback_graph=base,
                            )
                        return True

                ok = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                assert ok
            finally:
                await server.close()

        asyncio.run(drive())

    @pytest.mark.parametrize("flip", [False, True], ids=["same", "reversed"])
    def test_fallback_types_a_repeated_added_edge_like_the_engine(self, flip):
        """A batch naming one absent edge twice (either orientation) is
        an EdgeAlreadyPresentError on the live engine and on the
        stale-parent fallback alike."""
        from repro.api import solve
        from repro.core.incremental import IncrementalColoring

        base, matching = updatable_instance()
        u, v = matching[0]
        batch = [(u, v), (v, u) if flip else (u, v)]
        engine = IncrementalColoring.from_result(base, solve(base, seed=1))
        with pytest.raises(EdgeAlreadyPresentError):
            engine.batch_update(added=batch)

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        with pytest.raises(EdgeAlreadyPresentError):
                            client.update(
                                "c" * 64, edges_added=batch, fallback_graph=base
                            )

                await asyncio.get_running_loop().run_in_executor(None, client_flow)
            finally:
                await server.close()

        asyncio.run(drive())

    def test_async_client_stale_parent_fallback(self):
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                from repro.service.client import AsyncColoringClient

                async with AsyncColoringClient(port=server.port) as client:
                    with pytest.raises(StaleParentError):
                        await client.update("d" * 64, edges_added=[matching[0]])
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
            finally:
                await server.close()

        asyncio.run(drive())

    def test_malformed_update_requests(self):
        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    import json
                    import socket

                    with socket.create_connection(("127.0.0.1", port), 10) as sock:
                        reader = sock.makefile("r", encoding="utf-8")

                        def roundtrip(payload):
                            sock.sendall(
                                (json.dumps(payload) + "\n").encode("utf-8")
                            )
                            return json.loads(reader.readline())

                        no_parent = roundtrip({"id": 1, "op": "update"})
                        assert no_parent["error"]["type"] == "protocol"
                        bad_edges = roundtrip({
                            "id": 2, "op": "update", "parent_digest": "x" * 64,
                            "edges_added": [[1, 2, 3]],
                        })
                        assert bad_edges["error"]["type"] == "protocol"
                        # huge ids must be a protocol error (a prompt
                        # reply), never an unanswered dead request
                        huge = roundtrip({
                            "id": 4, "op": "update", "parent_digest": "x" * 64,
                            "edges_added": [[2**31, 2**31 + 1]],
                        })
                        assert huge["error"]["type"] == "protocol"
                        stale = roundtrip({
                            "id": 3, "op": "update", "parent_digest": "x" * 64,
                            "edges_added": [[0, 1]],
                        })
                        assert stale["error"]["type"] == "stale_parent"
                    return True

                assert await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
            finally:
                await server.close()

        asyncio.run(drive())


class TestChainEngineEquivalence:
    def test_gateway_chain_matches_solve_incremental(self):
        """The gateway's long-lived chain-head engine must reproduce the
        old re-materialize-per-update path bit for bit: same colors,
        same seed propagation, same content digests down the chain."""
        from repro.api import solve_incremental

        base, matching = updatable_instance()
        config = SolverConfig(seed=1)

        async def drive():
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, config)
                upd1 = await gateway.submit_update(
                    solved.fingerprint, edges_added=[matching[0]]
                )
                upd2 = await gateway.submit_update(
                    upd1.fingerprint,
                    edges_added=[matching[1]],
                    edges_removed=[matching[0]],
                )
                return solved, upd1, upd2

        def canonical(result):
            # strip the nested repair-timing noise (the top-level
            # wall_time_s is already excluded by content_digest; the
            # per-update one inside stats is equally non-content)
            payload = result.as_dict()
            payload.pop("wall_time_s", None)
            for section in ("phase_stats", "stats"):
                for stats in payload.get(section, {}).values():
                    if isinstance(stats, dict):
                        for key in ("wall_time_s", "wall_s", "rung_wall_s"):
                            stats.pop(key, None)
            return payload

        solved, upd1, upd2 = asyncio.run(drive())
        # replay the same chain through the pre-engine facade
        old1 = solve_incremental(base, solved.result, edges_added=[matching[0]])
        assert list(upd1.result.colors) == list(old1.result.colors)
        assert canonical(upd1.result) == canonical(old1.result)
        assert upd1.result.seed == old1.result.seed == solved.result.seed
        old2 = solve_incremental(
            old1.graph, old1.result,
            edges_added=[matching[1]], edges_removed=[matching[0]],
        )
        assert list(upd2.result.colors) == list(old2.result.colors)
        assert canonical(upd2.result) == canonical(old2.result)

    def test_chain_head_engine_lives_in_graph_store(self):
        """Only the chain head stays updatable (one engine per chain);
        every digest in the chain still serves snapshot reads."""
        base, matching = updatable_instance()

        async def drive():
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, SolverConfig(seed=1))
                assert gateway.cache.stats()["graph_store"]["chains"] == 0
                upd1 = await gateway.submit_update(
                    solved.fingerprint, edges_added=[matching[0]]
                )
                assert gateway.cache.stats()["graph_store"]["chains"] == 1
                # a snapshot read at the head does not lose the engine
                assert gateway.cache.get_graph(upd1.fingerprint) is not None
                assert gateway.cache.stats()["graph_store"]["chains"] == 1
                upd2 = await gateway.submit_update(
                    upd1.fingerprint, edges_added=[matching[1]]
                )
                # the engine moved to the new head — still one chain
                assert gateway.cache.stats()["graph_store"]["chains"] == 1
                # the root's solve-time graph and the live head serve
                # snapshot reads; the superseded intermediate version
                # moved with the engine, so branching from it degrades
                # to the retriable stale-parent path (the client's
                # fallback_graph recovery), never to a wrong answer
                assert gateway.cache.get_graph(solved.fingerprint) is not None
                assert gateway.cache.get_graph(upd2.fingerprint) is not None
                assert gateway.cache.get_graph(upd1.fingerprint) is None
                with pytest.raises(StaleParentError):
                    await gateway.submit_update(
                        upd1.fingerprint, edges_added=[matching[2]]
                    )
                # ...while replaying the head's exact delta still hits
                # the result cache bit-identically
                replay = await gateway.submit_update(
                    upd1.fingerprint, edges_added=[matching[1]]
                )
                assert replay.cached
                assert (
                    replay.result.content_digest()
                    == upd2.result.content_digest()
                )

        asyncio.run(drive())


def raw_update(port: int, request: dict) -> dict:
    """One NDJSON round trip, bypassing the client (which no longer
    sends the legacy ``backend`` field)."""
    import json
    import socket

    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
        return json.loads(reader.readline())


class TestDynamicBackendWire:
    """The wire ``backend`` field: the three legacy values are accepted
    and ignored, anything else is a protocol error."""

    def test_update_backend_dynamic_over_tcp(self):
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        solved = client.solve(base, seed=1)
                    return raw_update(port, {
                        "id": 1, "op": "update",
                        "parent_digest": solved.fingerprint,
                        "edges_added": [list(matching[0])],
                        "backend": "dynamic",
                    })

                reply = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                assert reply["ok"], reply
                child = base.apply_updates(added=[matching[0]])
                validate_coloring(
                    child, reply["result"]["colors"],
                    max_colors=reply["result"]["palette"],
                )
                # the chain head is a live engine in the graph store
                engine = server.gateway.cache.pop_engine(reply["fingerprint"])
                assert engine is not None
                assert set(engine.graph.edges()) == set(child.edges())
            finally:
                await server.close()

        asyncio.run(drive())

    def test_backend_choice_does_not_fragment_the_cache(self):
        """The same delta under any legacy backend value shares one
        child digest: the field never reaches the engine or the digest."""
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    with ColoringClient(port=port, timeout=60.0) as client:
                        solved = client.solve(base, seed=1)
                        plain = client.update(
                            solved.fingerprint, edges_added=[matching[0]]
                        )
                    replies = [
                        raw_update(port, {
                            "id": i, "op": "update",
                            "parent_digest": solved.fingerprint,
                            "edges_added": [list(matching[0])],
                            "backend": backend,
                        })
                        for i, backend in enumerate(("dynamic", "immutable", "auto"))
                    ]
                    return plain, replies

                plain, replies = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                for reply in replies:
                    assert reply["ok"] and reply["cached"]
                    assert reply["fingerprint"] == plain.fingerprint
            finally:
                await server.close()

        asyncio.run(drive())

    def test_invalid_backend_is_protocol_error(self):
        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                port = server.port

                def client_flow():
                    return raw_update(port, {
                        "id": 1, "op": "update",
                        "parent_digest": "x" * 64,
                        "edges_added": [[0, 1]],
                        "backend": "nope",
                    })

                reply = await asyncio.get_running_loop().run_in_executor(
                    None, client_flow
                )
                assert not reply["ok"]
                assert reply["error"]["type"] == "protocol"
                assert "backend" in reply["error"]["message"]
            finally:
                await server.close()

        asyncio.run(drive())

    def test_async_client_update_parks_a_live_engine(self):
        base, matching = updatable_instance()

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                from repro.graphs.dynamic import DynamicGraph
                from repro.service.client import AsyncColoringClient

                async with AsyncColoringClient(port=server.port) as client:
                    solved = await client.solve(base, seed=1)
                    upd = await client.update(
                        solved.fingerprint, edges_added=[matching[0]]
                    )
                    assert upd.parent_digest == solved.fingerprint
                engine = server.gateway.cache.pop_engine(upd.fingerprint)
                assert engine is not None
                assert isinstance(engine._graph, DynamicGraph)
            finally:
                await server.close()

        asyncio.run(drive())


def test_solve_results_seed_the_graph_store():
    base, _ = updatable_instance()

    async def drive():
        async with BatchingGateway() as gateway:
            reply = await gateway.submit(base, SolverConfig(seed=2))
            stored = gateway.cache.get_graph(reply.fingerprint)
            assert stored is not None
            assert stored.num_edges == base.num_edges
            # a cache hit must not require the graph store
            again = await gateway.submit(base, SolverConfig(seed=2))
            assert again.cached

    asyncio.run(drive())
