"""Tests for the storage API layer: journal framing, protocols, config.

The durable backend's crash-injection suite lives in
``test_storage_durable.py`` and the warm-restart replay suite in
``test_storage_replay.py``; this file covers the building blocks — the
framed journal, the protocol conformance of both backends, the
consolidated :class:`StorageConfig`, the memory store over the durable
tier, and the removal of the old gateway kwargs.
"""

from __future__ import annotations

import pytest

from repro.api import solve
from repro.graphs.graph import Graph
from repro.service import BatchingGateway
from repro.service.storage import (
    DurableStore,
    FsyncPolicy,
    Journal,
    MemoryStore,
    ResultStore,
    StorageBundle,
    StorageConfig,
    UpdateWAL,
    WriteAheadLog,
    decode_record,
    encode_record,
)


@pytest.fixture
def result():
    return solve(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]))


class TestJournalFraming:
    def test_encode_decode_round_trip(self):
        payload = {"kind": "result", "key": "r1:" + "a" * 60, "x": [1, 2]}
        line = encode_record(payload)
        assert line.endswith(b"\n")
        assert decode_record(line) == payload

    def test_corrupt_crc_rejected(self):
        line = bytearray(encode_record({"k": "v"}))
        line[12] ^= 0xFF  # flip a payload byte; the crc no longer matches
        assert decode_record(bytes(line)) is None

    def test_torn_line_rejected(self):
        line = encode_record({"k": "v"})
        assert decode_record(line[: len(line) // 2]) is None
        assert decode_record(b"") is None
        assert decode_record(b"nothexx {}") is None

    def test_append_returns_exact_offsets(self, tmp_path):
        with Journal(tmp_path / "j.log") as journal:
            offsets = [journal.append({"i": i, "pad": "x" * i}) for i in range(5)]
            for (off, length), (_, _, payload) in zip(offsets, journal.scan()):
                assert journal.read_at(off, length) == payload

    def test_scan_stops_at_torn_tail_and_open_truncates(self, tmp_path):
        path = tmp_path / "j.log"
        with Journal(path) as journal:
            journal.append({"i": 0})
            journal.append({"i": 1})
            good_size = journal.size
        with open(path, "ab") as handle:
            handle.write(b"00000000 {\"torn\": tru")  # no newline, bad json
        reopened = Journal(path)
        assert reopened.torn_records == 1
        assert reopened.size == good_size
        assert [p["i"] for _, _, p in reopened.scan()] == [0, 1]
        reopened.close()

    def test_fsync_policy_schedule(self):
        always = FsyncPolicy("always")
        assert all(always.after_append() for _ in range(3))
        never = FsyncPolicy("never")
        assert not any(never.after_append() for _ in range(3))
        assert not never.on_sync()
        batch = FsyncPolicy("batch", batch_ops=3)
        assert [batch.after_append() for _ in range(6)] == [
            False, False, True, False, False, True,
        ]
        assert batch.on_sync()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            FsyncPolicy("sometimes")


class TestProtocolConformance:
    def test_both_backends_are_result_stores(self, tmp_path):
        durable = DurableStore(tmp_path / "store")
        try:
            assert isinstance(MemoryStore(), ResultStore)
            assert isinstance(durable, ResultStore)
            assert isinstance(MemoryStore(durable=durable), ResultStore)
        finally:
            durable.close()

    def test_wal_satisfies_protocol(self, tmp_path):
        with UpdateWAL(tmp_path / "u.wal") as wal:
            assert isinstance(wal, WriteAheadLog)

    def test_result_cache_evict(self, result):
        cache = MemoryStore()
        cache.put("k", result)
        assert cache.evict("k") is True
        assert cache.get("k") is None
        assert cache.evict("k") is False
        assert cache.stats()["cache"]["evictions_lru"] == 1

    def test_graph_store_evict_is_typed(self):
        store = MemoryStore()
        store.put_graph("g", Graph(2, [(0, 1)]))
        assert store.evict_graph("g") is True and store.evict_graph("g") is False
        assert store.stats()["graph_store"]["evictions_graphs"] == 1
        assert store.stats()["graph_store"]["evictions_chains"] == 0


class TestStorageConfig:
    def test_defaults_bound_one_store(self):
        # The one store's bounds are the sums of the two it replaced
        # (1024 + 128 entries, 256 + 512 MiB).
        bundle = StorageConfig().build()
        cache = bundle.cache
        assert isinstance(cache, MemoryStore)
        assert (cache.max_entries, cache.max_bytes) == (1152, 768 * 1024 * 1024)
        assert (cache.max_entries, cache.max_bytes) == (
            MemoryStore().max_entries, MemoryStore().max_bytes,
        )
        assert cache.durable is None
        assert bundle.durable is None and bundle.wal is None

    def test_validation(self):
        with pytest.raises(ValueError):
            StorageConfig(cache_entries=0)
        with pytest.raises(ValueError):
            StorageConfig(fsync="later")
        with pytest.raises(ValueError):
            StorageConfig(segment_max_bytes=0)
        for removed in ("cache_ttl_s", "graph_store_entries", "graph_store_bytes"):
            with pytest.raises(TypeError):
                StorageConfig(**{removed: 1})

    def test_durable_build_wires_all_pieces(self, tmp_path):
        bundle = StorageConfig(store_dir=tmp_path / "s").build()
        try:
            assert isinstance(bundle.cache, MemoryStore)
            assert bundle.cache.durable is bundle.durable
            assert bundle.wal is not None
            assert bundle.stats()["durable"] is True
        finally:
            bundle.close()

    def test_graph_store_view_is_the_graph_kinds(self):
        # What perfbench calls: graph semantics for get and put.
        bundle = StorageConfig().build()
        graph = Graph(3, [(0, 1), (1, 2)])
        bundle.graph_store.put("k", graph)
        assert bundle.graph_store.get("k").csr() == graph.csr()
        assert bundle.cache.get("k") is None  # no result under the digest
        assert bundle.graph_store.pop_engine("k") is None

    def test_wal_off(self, tmp_path):
        bundle = StorageConfig(store_dir=tmp_path / "s", wal=False).build()
        try:
            assert bundle.durable is not None and bundle.wal is None
        finally:
            bundle.close()


class TestTieredStore:
    """:class:`MemoryStore` over a :class:`DurableStore`."""

    def test_write_through_and_promotion(self, tmp_path, result):
        durable = DurableStore(tmp_path / "s")
        tiered = MemoryStore(durable=durable)
        tiered.put("k", result)
        assert tiered.get("k") is result
        assert durable.get("k") is not None
        # cold memory tier: the durable hit promotes
        tiered.clear()
        promoted = tiered.get("k")
        assert promoted is not None
        assert tiered.stats()["cache"]["durable_hits"] == 1
        assert tiered.get("k") is promoted  # now a memory hit
        assert tiered.stats()["cache"]["durable_hits"] == 1
        durable.close()

    def test_clear_spares_the_durable_tier(self, tmp_path, result):
        durable = DurableStore(tmp_path / "s")
        tiered = MemoryStore(durable=durable)
        tiered.put("k", result)
        tiered.clear()
        assert tiered.get("k") is not None  # re-read from disk
        durable.close()

    def test_evict_drops_both_tiers(self, tmp_path, result):
        durable = DurableStore(tmp_path / "s")
        tiered = MemoryStore(durable=durable)
        tiered.put("k", result)
        assert tiered.evict("k") is True
        assert tiered.get("k") is None
        assert "k" not in tiered and len(tiered) == 0
        durable.close()

    def test_memory_only_put_skips_the_durable_tier(self, tmp_path, result):
        durable = DurableStore(tmp_path / "s")
        tiered = MemoryStore(durable=durable)
        tiered.memory.put("k", result)
        assert tiered.get("k") is result
        assert durable.get("k") is None
        assert tiered.stats()["cache"]["puts"] == 1
        durable.close()


class TestGatewayStorageParam:
    def test_legacy_kwargs_are_gone(self):
        # storage= is the one way in; custom stores ride in a bundle.
        for kwargs in ({"cache": MemoryStore()}, {"graph_store": MemoryStore()}):
            with pytest.raises(TypeError):
                BatchingGateway(**kwargs)
        cache = MemoryStore(max_entries=7)
        gateway = BatchingGateway(storage=StorageBundle(cache=cache))
        assert gateway.cache is cache
        assert not hasattr(gateway, "graph_store")

    def test_legacy_kwargs_with_storage_are_rejected(self):
        # No conflict to resolve any more: the old names are simply unknown.
        for kwargs in (
            {"cache": MemoryStore(), "storage": StorageConfig()},
            {"graph_store": MemoryStore(), "storage": StorageConfig()},
        ):
            with pytest.raises(TypeError):
                BatchingGateway(**kwargs)

    def test_bundle_injection_is_not_owned(self, tmp_path):
        bundle = StorageConfig(store_dir=tmp_path / "s").build()
        gateway = BatchingGateway(storage=bundle)
        assert gateway.cache is bundle.cache
        assert gateway._owns_storage is False
        bundle.close()

    def test_default_is_memory_only(self):
        gateway = BatchingGateway()
        assert isinstance(gateway.cache, MemoryStore)
        assert gateway.storage.durable is None
        assert "storage" not in gateway.stats()
