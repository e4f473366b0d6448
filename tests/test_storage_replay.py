"""Warm-restart replay through the gateway — the tentpole's contract.

A gateway with a ``store_dir`` must come back from a cold start serving
its old digests from disk (``cached=True``, bit-identical) and with its
update chain heads rebuilt from the WAL, so streams continue across the
restart as if it never happened.  Also covers the typed chain-head
eviction fix: evicting a live engine is visible in the stats, degrades
to :class:`StaleParentError` on next use, and the chain is *recovered*
by WAL replay across a restart — eviction loses memory, not history.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import SolverConfig, solve, solve_incremental
from repro.errors import StaleParentError
from repro.graphs.generators import random_regular_graph
from repro.service import BatchingGateway, request_fingerprint
from repro.service.fingerprint import config_fingerprint, update_fingerprint
from repro.service.storage import (
    DurableStore,
    MemoryStore,
    StorageConfig,
    UpdateWAL,
    replay_chains,
    update_record,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def graph():
    return random_regular_graph(48, 4, seed=11)


def _carve(graph, count):
    """``count`` disjoint edges of ``graph`` (to re-add as update deltas)."""
    seen, carved = set(), []
    for u, v in graph.edges():
        if u not in seen and v not in seen:
            carved.append((u, v))
            seen.update((u, v))
            if len(carved) == count:
                break
    return carved


class TestWarmRestart:
    def test_results_and_chains_survive_restart(self, tmp_path, graph):
        delta = _carve(graph, 2)
        parent = graph.apply_updates(removed=delta)

        async def populate():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path, fsync="always")
            ).warm()
            base = await gateway.submit(parent)
            assert not base.cached
            u1 = await gateway.submit_update(base.fingerprint, edges_added=[delta[0]])
            u2 = await gateway.submit_update(u1.fingerprint, edges_added=[delta[1]])
            await gateway.close()
            return base, u1, u2

        base, u1, u2 = run(populate())

        async def restart():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path)
            ).warm()
            report = gateway.last_replay
            assert report["chains_replayed"] == 1
            assert report["deltas_replayed"] == 2
            # the base solve serves from the durable store, no re-solve
            again = await gateway.submit(parent)
            assert again.cached
            assert again.result.content_digest() == base.result.content_digest()
            # the replayed head result is bit-identical to pre-restart
            head = gateway.cache.get(u2.fingerprint)
            assert head is not None
            assert head.content_digest() == u2.result.content_digest()
            # and the chain continues: a further delta applies in place
            removed = next(iter(parent.edges()))
            u3 = await gateway.submit_update(u2.fingerprint, edges_removed=[removed])
            assert u3.parent_digest == u2.fingerprint
            stats = gateway.stats()
            assert stats["storage"]["replay"]["chains_replayed"] == 1
            await gateway.close()

        run(restart())

    def test_replay_span_and_metrics_emitted(self, tmp_path, graph):
        async def populate():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path, fsync="always")
            ).warm()
            base = await gateway.submit(graph)
            await gateway.submit_update(
                base.fingerprint,
                edges_removed=[next(iter(graph.edges()))],
            )
            await gateway.close()

        run(populate())

        from repro.obs.trace import Tracer

        tracer = Tracer(sample=1.0)

        async def restart():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path), tracer=tracer
            ).warm()
            snapshot = gateway.metrics.registry.as_dict()
            await gateway.close()
            return snapshot

        snapshot = run(restart())
        spans = [s for s in tracer.spans() if s["name"] == "store.replay"]
        assert len(spans) == 1 and spans[0]["attrs"]["chains_replayed"] == 1
        assert "repro_store_replay_seconds" in snapshot
        assert "repro_store_replayed_total" in snapshot

    def test_double_warm_is_idempotent(self, tmp_path, graph):
        async def populate():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path, fsync="always")
            ).warm()
            base = await gateway.submit(graph)
            await gateway.submit_update(
                base.fingerprint,
                edges_removed=[next(iter(graph.edges()))],
            )
            await gateway.close()

        run(populate())

        async def restart_twice():
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path)
            ).warm()
            first = dict(gateway.last_replay)
            gateway.replay()
            second = dict(gateway.last_replay)
            await gateway.close()
            return first, second

        first, second = run(restart_twice())
        for key in ("chains_replayed", "deltas_replayed", "chains_skipped"):
            assert first[key] == second[key]


class TestChainHeadEviction:
    def test_eviction_is_typed_and_degrades_to_stale_parent(self, tmp_path, graph):
        async def scenario():
            gateway = BatchingGateway(
                storage=StorageConfig(
                    store_dir=tmp_path, cache_entries=2, fsync="always"
                )
            ).warm()
            base = await gateway.submit(graph)
            u1 = await gateway.submit_update(
                base.fingerprint,
                edges_removed=[next(iter(graph.edges()))],
            )
            # the head engine is live in the store; evicting it is the
            # typed loss the stats must surface
            assert gateway.cache.stats()["graph_store"]["chains"] == 1
            assert gateway.cache.evict_graph(u1.fingerprint) is True
            assert gateway.cache.stats()["graph_store"]["evictions_chains"] == 1
            remaining = [
                e for e in graph.edges()
                if e != next(iter(graph.edges()))
            ]
            with pytest.raises(StaleParentError):
                await gateway.submit_update(
                    u1.fingerprint, edges_removed=[remaining[0]],
                )
            await gateway.close()
            return u1.fingerprint, remaining[0]

        head_digest, next_delta = run(scenario())

        async def restart():
            # the WAL outlives the eviction: a restarted process replays
            # the chain and the same update now succeeds
            gateway = BatchingGateway(
                storage=StorageConfig(store_dir=tmp_path)
            ).warm()
            assert gateway.last_replay["chains_replayed"] == 1
            reply = await gateway.submit_update(head_digest, edges_removed=[next_delta])
            assert reply.parent_digest == head_digest
            await gateway.close()

        run(restart())


class TestLegacyWalRecords:
    def test_backend_field_is_ignored_on_replay(self, tmp_path, graph):
        """Records written while the update path still had a ``backend``
        knob carry the field; replay ignores it and rebuilds the chain
        head a live engine reaches: same colors, same edges."""
        config = SolverConfig(seed=3)
        delta = _carve(graph, 2)
        parent = graph.apply_updates(removed=delta)
        base_key = request_fingerprint(parent, config)
        key, head_graph, head = base_key, parent, solve(parent, config)
        with DurableStore(tmp_path) as store, UpdateWAL(
            tmp_path / "update.wal"
        ) as wal:
            store.put(base_key, head)
            store.put_graph(base_key, parent)
            for edge in delta:
                updated = solve_incremental(head_graph, head, [edge], [], config)
                child = update_fingerprint(key, [edge], [], config_fingerprint(config))
                record = update_record(key, child, [edge], [], config)
                assert "backend" not in record
                wal.append({**record, "backend": "immutable"})
                key, head_graph, head = child, updated.graph, updated.result
        with DurableStore(tmp_path) as store, UpdateWAL(
            tmp_path / "update.wal"
        ) as wal:
            memory = MemoryStore(durable=store)
            report = replay_chains(wal, memory)
            assert report["chains_replayed"] == 1
            assert report["deltas_replayed"] == 2
            engine = memory.pop_engine(key)
        assert engine is not None
        assert engine.colors == list(head.colors)
        assert set(engine.graph.edges()) == set(head_graph.edges())
