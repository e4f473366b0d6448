"""Sync/async client API parity, pinned structurally and behaviorally.

:class:`ColoringClient` and :class:`AsyncColoringClient` are two
transports for one API: every public verb must take the same parameters,
in the same kinds (the optional knobs keyword-only on both), with the
same defaults.  The structural half is asserted over
``inspect.signature`` so any future drift — a renamed kwarg, a default
changed on one flavour only — fails here before it ships; the
behavioral half runs the same verbs against one live server through
both flavours and compares the replies.
"""

from __future__ import annotations

import asyncio
import inspect
import threading

import pytest

from repro.graphs.generators import random_regular_graph
from repro.service import AsyncColoringClient, ColoringClient, ColoringServer

VERBS = ("solve", "update", "stats", "metrics", "ping")


def _signature(cls, name):
    return inspect.signature(getattr(cls, name))


class TestSignatureParity:
    @pytest.mark.parametrize("verb", VERBS)
    def test_parameters_match_exactly(self, verb):
        sync_params = _signature(ColoringClient, verb).parameters
        async_params = _signature(AsyncColoringClient, verb).parameters
        assert list(sync_params) == list(async_params)
        for name in sync_params:
            sync_p, async_p = sync_params[name], async_params[name]
            assert sync_p.kind == async_p.kind, f"{verb}({name}) kind differs"
            assert sync_p.default == async_p.default, (
                f"{verb}({name}) default differs"
            )

    def test_optional_knobs_are_keyword_only(self):
        # the uniform surface: transport-independent call sites can pass
        # these only by name, so neither flavour can reorder them apart
        for cls in (ColoringClient, AsyncColoringClient):
            update = _signature(cls, "update").parameters
            assert update["fallback_graph"].kind is inspect.Parameter.KEYWORD_ONLY
            metrics = _signature(cls, "metrics").parameters
            assert metrics["format"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_async_flavour_is_actually_async(self):
        for verb in VERBS:
            assert inspect.iscoroutinefunction(getattr(AsyncColoringClient, verb))
            assert not inspect.iscoroutinefunction(getattr(ColoringClient, verb))


class TestBehavioralParity:
    @pytest.fixture
    def server(self):
        """One server on its own loop thread; yields the bound port."""
        started = threading.Event()
        box = {}

        def main():
            async def run():
                server = ColoringServer(port=0)
                _, port = await server.start()
                box["port"] = port
                started.set()
                await box["stop"].wait()
                await server.shutdown(drain_s=2.0)

            loop = asyncio.new_event_loop()
            box["loop"] = loop
            box["stop"] = asyncio.Event()
            loop.run_until_complete(run())
            loop.close()

        thread = threading.Thread(target=main, daemon=True)
        thread.start()
        assert started.wait(30.0)
        yield box["port"]
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=30.0)

    def test_same_verbs_same_replies(self, server):
        graph = random_regular_graph(24, 3, seed=4)
        delta = [next(iter(graph.edges()))]

        with ColoringClient(port=server) as sync_client:
            assert sync_client.ping() is True
            solved = sync_client.solve(graph, seed=1)
            updated = sync_client.update(solved.fingerprint, edges_removed=delta)
            sync_stats = sync_client.stats()
            sync_metrics = sync_client.metrics()
            sync_text = sync_client.metrics(format="prometheus")

        async def async_side():
            async with AsyncColoringClient(port=server) as client:
                assert await client.ping() is True
                solved2 = await client.solve(graph, seed=1)
                updated2 = await client.update(solved2.fingerprint, edges_removed=delta)
                stats = await client.stats()
                metrics = await client.metrics()
                text = await client.metrics(format="prometheus")
                return solved2, updated2, stats, metrics, text

        solved2, updated2, async_stats, async_metrics, async_text = asyncio.run(
            async_side()
        )
        # same digests, bit-identical results, on both transports
        assert solved2.fingerprint == solved.fingerprint
        assert solved2.result.content_digest() == solved.result.content_digest()
        assert updated2.fingerprint == updated.fingerprint
        assert updated2.result.content_digest() == updated.result.content_digest()
        # same reply shapes for the introspection verbs
        assert set(async_stats) == set(sync_stats)
        assert set(async_metrics) == set(sync_metrics)
        assert async_text.splitlines()[0] == sync_text.splitlines()[0]
