"""Crash-injection tests for the durable backend.

Each test simulates a specific kill point by mutilating the on-disk
state the way a SIGKILL at that instant would leave it, then reopens the
store and asserts the recovery contract:

* **kill mid-append** — a torn record at a segment (or index) tail is
  truncated; everything before it survives.
* **kill between result write and index update** — the segment record
  exists but its index entry doesn't; the open-time scan past the
  highest indexed offset re-indexes it.
* **double replay** — reopening and replaying twice is a no-op on disk
  and converges to the same servable state.

Plus the property test: across a spread of instances, every digest that
went in comes back out bit-identical (``content_digest``-asserted), and
replayed update chains carry valid colorings.
"""

from __future__ import annotations

import pytest

from repro.api import SolverConfig, solve, solve_incremental
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_coloring
from repro.service import request_fingerprint
from repro.service.storage import (
    DurableStore,
    MemoryStore,
    Journal,
    UpdateWAL,
    replay_chains,
    update_record,
)
from repro.service.fingerprint import config_fingerprint, update_fingerprint


def _segment_paths(root):
    return sorted((root / "segments").glob("seg-*.log"))


@pytest.fixture
def ring_result():
    graph = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    return graph, solve(graph)


class TestKillMidAppend:
    def test_torn_segment_tail_truncated(self, tmp_path, ring_result):
        graph, result = ring_result
        with DurableStore(tmp_path) as store:
            store.put("r1:" + "a" * 60, result)
        seg = _segment_paths(tmp_path)[0]
        intact = seg.stat().st_size
        with open(seg, "ab") as handle:
            handle.write(b'0000dead {"kind": "result", "key": "r1:torn')
        with DurableStore(tmp_path) as reopened:
            assert reopened.torn_records == 1
            assert seg.stat().st_size == intact
            assert reopened.get("r1:" + "a" * 60) is not None
            # the next append lands cleanly after the truncation point
            reopened.put("r1:" + "b" * 60, result)
        with DurableStore(tmp_path) as again:
            assert len(again) == 2

    def test_torn_index_tail_rebuilt_from_segment(self, tmp_path, ring_result):
        _, result = ring_result
        with DurableStore(tmp_path) as store:
            store.put("r1:" + "a" * 60, result)
            store.put("r1:" + "b" * 60, result)
        index = tmp_path / "index.log"
        # tear the last index line mid-record: its segment record survives
        lines = index.read_bytes().splitlines(keepends=True)
        index.write_bytes(b"".join(lines[:-1]) + lines[-1][:10])
        with DurableStore(tmp_path) as reopened:
            assert reopened.get("r1:" + "b" * 60) is not None
            assert reopened.recovered_records == 1

    def test_torn_wal_tail(self, tmp_path):
        path = tmp_path / "update.wal"
        with UpdateWAL(path) as wal:
            wal.append(
                update_record("p" * 64, "c" * 64, [(0, 1)], [], SolverConfig(), "auto")
            )
        with open(path, "ab") as handle:
            handle.write(b"ffffffff {\"parent\": \"to")
        with UpdateWAL(path) as reopened:
            records = list(reopened.replay())
            assert len(records) == 1 and records[0]["child"] == "c" * 64
            assert reopened.stats()["torn_records"] == 1


class TestKillBetweenWriteAndIndex:
    def test_unindexed_record_recovered(self, tmp_path, ring_result):
        _, result = ring_result
        with DurableStore(tmp_path) as store:
            store.put("r1:" + "a" * 60, result)
        # Simulate the crash window: append a record directly to the
        # segment (as DurableStore would) without touching the index.
        seg = _segment_paths(tmp_path)[0]
        with Journal(seg, fsync="always") as journal:
            journal.append(
                {"kind": "result", "key": "r1:" + "c" * 60,
                 "result": result.as_dict()}
            )
        with DurableStore(tmp_path) as reopened:
            assert reopened.recovered_records == 1
            recovered = reopened.get("r1:" + "c" * 60)
            assert recovered is not None
            assert recovered.content_digest() == result.content_digest()

    def test_recovery_is_persisted(self, tmp_path, ring_result):
        _, result = ring_result
        with DurableStore(tmp_path) as store:
            store.put("r1:" + "a" * 60, result)
        seg = _segment_paths(tmp_path)[0]
        with Journal(seg, fsync="always") as journal:
            journal.append(
                {"kind": "result", "key": "r1:" + "c" * 60,
                 "result": result.as_dict()}
            )
        with DurableStore(tmp_path):
            pass  # first open re-indexes and appends the index entry
        with DurableStore(tmp_path) as second:
            assert second.recovered_records == 0  # nothing left to recover
            assert second.get("r1:" + "c" * 60) is not None


class TestIdempotence:
    def test_put_same_digest_writes_once(self, tmp_path, ring_result):
        _, result = ring_result
        with DurableStore(tmp_path) as store:
            store.put("r1:" + "a" * 60, result)
            size = _segment_paths(tmp_path)[0].stat().st_size
            store.put("r1:" + "a" * 60, result)
            assert _segment_paths(tmp_path)[0].stat().st_size == size

    def test_double_replay_converges(self, tmp_path):
        base_graph = random_regular_graph(32, 4, seed=3)
        base_result = solve(base_graph)
        base_key = request_fingerprint(base_graph, SolverConfig())
        config = SolverConfig()
        delta = [(0, 2)] if (0, 2) not in set(base_graph.edges()) else [(1, 3)]
        child_key = update_fingerprint(
            base_key, delta, [], config_fingerprint(config)
        )
        with DurableStore(tmp_path) as store, UpdateWAL(
            tmp_path / "update.wal"
        ) as wal:
            store.put(base_key, base_result)
            store.put_graph(base_key, base_graph)
            wal.append(
                update_record(base_key, child_key, delta, [], config, "dynamic")
            )

        def disk_bytes():
            return sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())

        reports, head_digests = [], []
        for _ in range(2):
            store = DurableStore(tmp_path)
            wal = UpdateWAL(tmp_path / "update.wal")
            memory = MemoryStore(durable=store)
            before = disk_bytes()
            report = replay_chains(wal, memory)
            engine = memory.pop_engine(child_key)
            assert memory.get(child_key) is not None
            assert engine is not None
            head_digests.append(tuple(engine.colors))
            reports.append(
                {k: report[k] for k in report if k != "wall_s"}
            )
            store.close()
            wal.close()
            assert disk_bytes() == before  # replay writes nothing durable
        assert reports[0] == reports[1]
        assert head_digests[0] == head_digests[1]
        assert reports[0]["chains_replayed"] == 1


class TestReplayProperties:
    def test_solve_results_round_trip_bit_identical(self, tmp_path):
        cases = [
            Graph(2, [(0, 1)]),
            Graph(9, [(i, (i + 1) % 9) for i in range(9)]),
            random_regular_graph(24, 3, seed=1),
            random_regular_graph(48, 5, seed=2),
            random_regular_graph(64, 4, seed=7),
        ]
        expected = {}
        with DurableStore(tmp_path, fsync="always") as store:
            for graph in cases:
                result = solve(graph)
                key = request_fingerprint(graph, SolverConfig())
                store.put(key, result)
                expected[key] = result.content_digest()
        with DurableStore(tmp_path) as reopened:
            assert len(reopened) == len(expected)
            for key, digest in expected.items():
                assert reopened.get(key).content_digest() == digest

    def test_replayed_chains_carry_valid_colorings(self, tmp_path):
        config = SolverConfig(seed=5)
        base_graph = random_regular_graph(40, 4, seed=5)
        # carve two edges out so the chain can add them back
        edges = list(base_graph.edges())
        carved = [edges[3], edges[17]]
        parent_graph = base_graph.apply_updates(removed=carved)
        parent_result = solve(parent_graph, config)
        base_key = request_fingerprint(parent_graph, config)

        store = DurableStore(tmp_path)
        wal = UpdateWAL(tmp_path / "update.wal")
        store.put(base_key, parent_result)
        store.put_graph(base_key, parent_graph)
        # build the authoritative chain the way the gateway would
        key, graph, result = base_key, parent_graph, parent_result
        for edge in carved:
            updated = solve_incremental(graph, result, [edge], [], config)
            child = update_fingerprint(
                key, [edge], [], config_fingerprint(config)
            )
            wal.append(update_record(key, child, [edge], [], config, "dynamic"))
            key, graph, result = child, updated.graph, updated.result
        store.close()
        wal.close()

        store = DurableStore(tmp_path)
        wal = UpdateWAL(tmp_path / "update.wal")
        memory = MemoryStore(durable=store)
        report = replay_chains(wal, memory)
        assert report == {
            **report, "chains_replayed": 1, "deltas_replayed": 2,
            "chains_skipped": 0,
        }
        engine = memory.pop_engine(key)
        assert engine is not None
        validate_coloring(engine.graph, engine.colors)
        assert engine.graph.num_edges == base_graph.num_edges
        store.close()
        wal.close()

    def test_chain_with_missing_base_is_skipped_not_fatal(self, tmp_path):
        with DurableStore(tmp_path) as store, UpdateWAL(
            tmp_path / "update.wal"
        ) as wal:
            wal.append(
                update_record(
                    "r1:" + "0" * 60, "u1:" + "1" * 60, [(0, 1)], [],
                    SolverConfig(), "auto",
                )
            )
            report = replay_chains(wal, MemoryStore(durable=store))
            assert report["chains_seen"] == 1
            assert report["chains_skipped"] == 1
            assert report["chains_replayed"] == 0
