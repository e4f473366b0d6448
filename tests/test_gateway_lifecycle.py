"""The gateway's one request lifecycle, shared by ``solve`` and ``update``.

Three contracts the lifecycle owns:

* settlement runs when the work finishes, never when the caller is
  cancelled — a cancelled update still lands its child and chain head,
  coalesced followers get the real result, and the books (slots, cost,
  in-flight futures) balance under concurrent cancellations;
* a micro-batch solves each request once, and a failing request fails
  only its own future;
* the reply's ``error.type`` and the ``repro_errors_total{kind}`` label
  come from one :func:`repro.service.metrics.error_kind` mapping.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
from collections import Counter

import pytest

import repro.api.solver as api_solver
import repro.service.batcher as batcher
from repro.analysis.harness import carve_matching
from repro.api import SolverConfig
from repro.errors import NotNiceGraphError
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.service import BatchingGateway, ColoringServer


def _updatable_instance(n=64, delta=4, slack=4, seed=0):
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, slack)
    return full.apply_updates(removed=matching), matching


class TestCancelledUpdate:
    def test_cancelled_update_settles_with_its_work(self, monkeypatch):
        base, matching = _updatable_instance()
        config = SolverConfig(seed=1)
        delta = {"edges_added": [matching[0]], "config": config}

        async def reference():
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, config)
                return await gateway.submit_update(solved.fingerprint, **delta)

        expected = asyncio.run(reference())

        real_apply = batcher.apply_incremental
        entered = threading.Event()
        release = threading.Event()

        def blocking_apply(*args, **kwargs):
            entered.set()
            assert release.wait(60), "the test never released the apply"
            return real_apply(*args, **kwargs)

        async def drive():
            loop = asyncio.get_running_loop()
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, config)
                monkeypatch.setattr(batcher, "apply_incremental", blocking_apply)
                leader = asyncio.create_task(
                    gateway.submit_update(solved.fingerprint, **delta)
                )
                assert await loop.run_in_executor(None, entered.wait, 60)
                follower = asyncio.create_task(
                    gateway.submit_update(solved.fingerprint, **delta)
                )
                await asyncio.sleep(0)  # the follower attaches to the leader
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                release.set()
                followed = await asyncio.wait_for(follower, 60)
                retried = await asyncio.wait_for(
                    gateway.submit_update(solved.fingerprint, **delta), 60
                )
                return followed, retried, gateway.stats()

        followed, retried, stats = asyncio.run(drive())
        for reply in (followed, retried):
            assert reply.fingerprint == expected.fingerprint
            assert reply.result.content_digest() == expected.result.content_digest()
        assert stats["outstanding"] == 0
        assert stats["outstanding_cost"] == 0
        assert stats["graph_store"]["chains"] == 1
        assert stats["metrics"]["failed"] == 0


class TestCancellationStress:
    def test_books_balance_under_concurrent_cancelled_updates(self):
        """Concurrent single-edge updates on one parent (each seeds its own
        engine in a worker thread), duplicates coalescing on them, and
        half of the callers cancelled mid-flight: every caller left waiting
        gets the digest a never-cancelled gateway returns, no slot, cost
        or in-flight entry is left behind, nothing failed, and a retry of
        every delta resolves to the same digest."""
        base, matching = _updatable_instance(n=96, slack=6, seed=3)
        config = SolverConfig(seed=1)

        async def reference():
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, config)
                return [
                    (await gateway.submit_update(
                        solved.fingerprint, edges_added=[e], config=config
                    )).result.content_digest()
                    for e in matching
                ]

        expected = asyncio.run(reference())
        rng = random.Random(7)

        async def drive():
            async with BatchingGateway() as gateway:
                solved = await gateway.submit(base, config)
                callers = [
                    asyncio.create_task(gateway.submit_update(
                        solved.fingerprint, edges_added=[e], config=config
                    ))
                    for e in matching for _ in range(3)
                ]
                await asyncio.sleep(0)  # every caller is in flight now
                for task in rng.sample(callers, len(callers) // 2):
                    task.cancel()
                await asyncio.wait(callers, timeout=60)
                assert all(task.done() for task in callers)
                served = [
                    task.result().result.content_digest()
                    for task in callers if not task.cancelled()
                ]
                assert served == [
                    expected[i // 3]
                    for i, task in enumerate(callers) if not task.cancelled()
                ]
                retried = [
                    (await asyncio.wait_for(gateway.submit_update(
                        solved.fingerprint, edges_added=[e], config=config
                    ), 60)).result.content_digest()
                    for e in matching
                ]
                return retried, gateway.stats(), dict(gateway._inflight)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            retried, stats, inflight = asyncio.run(drive())
        finally:
            sys.setswitchinterval(interval)
        assert retried == expected
        assert inflight == {}
        assert stats["outstanding"] == 0
        assert stats["outstanding_cost"] == 0
        assert stats["followers"] == 0
        assert stats["metrics"]["failed"] == 0


class TestFailureIsolation:
    def test_one_solve_per_request_and_only_the_bad_one_fails(self, monkeypatch):
        calls = []
        real_solve = api_solver.solve

        def counting_solve(graph, *args, **kwargs):
            calls.append(graph.n)
            return real_solve(graph, *args, **kwargs)

        monkeypatch.setattr(api_solver, "solve", counting_solve)
        monkeypatch.setattr(batcher, "solve", counting_solve, raising=False)
        graphs = [random_regular_graph(32, 3, seed=s) for s in range(3)]
        graphs.insert(2, complete_graph(5))
        config = SolverConfig(algorithm="randomized", seed=0)

        async def drive():
            async with BatchingGateway(max_batch=4, max_wait_s=0.5) as gateway:
                outcomes = await asyncio.gather(
                    *(gateway.submit(g, config) for g in graphs),
                    return_exceptions=True,
                )
                return outcomes, gateway.metrics.batches

        outcomes, batches = asyncio.run(drive())
        assert batches == 1
        assert sorted(calls) == sorted(g.n for g in graphs)
        assert isinstance(outcomes[2], NotNiceGraphError)
        for index in (0, 1, 3):
            assert outcomes[index].result.palette == 3


class TestErrorTaxonomy:
    def test_reply_type_and_error_counter_agree(self):
        base, matching = _updatable_instance()
        edges = [list(e) for e in base.edges()]

        async def drive():
            server = ColoringServer(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(port=server.port)
                next_id = iter(range(1, 100))

                async def ask(obj):
                    obj["id"] = next(next_id)
                    writer.write((json.dumps(obj) + "\n").encode())
                    await writer.drain()
                    return json.loads(await asyncio.wait_for(reader.readline(), 60))

                solved = await ask({"op": "solve", "graph": {"n": base.n, "edges": edges}})
                parent = solved["fingerprint"]
                failures = [
                    await ask({"op": "solve", "graph": {"n": 3, "edges": [[0, 1], [1, 0], [1, 2]]}}),
                    await ask({"op": "solve", "graph": {"n": 3, "edges": [[0, 0], [1, 2]]}}),
                    await ask({"op": "update", "parent_digest": parent,
                               "edges_added": [list(edges[0])]}),
                    await ask({"op": "update", "parent_digest": parent,
                               "edges_added": [[5, 5]]}),
                    await ask({"op": "update", "parent_digest": parent,
                               "edges_added": [[0, base.n + 3]]}),
                ]
                stats = await ask({"op": "stats"})
                writer.close()
                await writer.wait_closed()
                return failures, stats["stats"]["metrics"]["errors"]
            finally:
                await server.close()

        failures, errors = asyncio.run(drive())
        kinds = [reply["error"]["type"] for reply in failures]
        assert not any(reply["ok"] for reply in failures)
        assert kinds == ["protocol", "protocol", "update", "update", "update"]
        assert errors == dict(Counter(kinds))
