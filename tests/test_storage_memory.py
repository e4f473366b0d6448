"""Tests for :class:`repro.service.storage.memory.MemoryStore`.

Two parts: the byte estimates the one budget is made of, checked
against what the interpreter really allocates (tracemalloc), and a
hypothesis state machine that drives the store against a dict model of
one LRU over ``(kind, digest)`` keys, with and without a durable tier.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import ColoringResult, solve
from repro.core.incremental import IncrementalColoring
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import Graph
from repro.service.storage import DurableStore, MemoryStore
from repro.service.storage.memory import (
    estimate_engine_nbytes,
    estimate_graph_nbytes,
    estimate_result_nbytes,
)


def _retained(build):
    """``(object, bytes it retains)``: what ``build()`` leaves allocated
    once its temporaries are collected."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        gc.collect()
        return obj, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1024, 8192])
class TestEstimates:
    """Each kind's estimate is within 2× of what its entry retains."""

    @pytest.fixture
    def instance(self, n):
        graph = random_regular_graph(n, 8, seed=1)
        return list(graph.edges()), solve(graph)

    def test_result(self, n, instance):
        _, result = instance
        payload = result.as_dict()
        copy, nbytes = _retained(lambda: ColoringResult.from_dict(payload))
        assert nbytes / 2 <= estimate_result_nbytes(copy) <= 2 * nbytes

    def test_stored_graph_drops_the_solvers_adjacency_lists(self, n, instance):
        edges, _ = instance
        solve(Graph(n, edges))  # warm anything a first solve loads

        def stored():
            graph = Graph(n, edges)
            solve(graph)  # builds adjacency lists on the caller's graph
            assert graph._adj is not None
            store = MemoryStore()
            store.put_graph("g", graph)
            return store

        store, nbytes = _retained(stored)
        estimate = store.stats()["graph_store"]["bytes"]
        assert estimate == estimate_graph_nbytes(store.get_graph("g"))
        assert nbytes / 2 <= estimate <= 2 * nbytes

    def test_engine(self, n, instance):
        edges, result = instance
        graph = Graph(n, edges)
        engine, nbytes = _retained(lambda: IncrementalColoring.from_result(graph, result))
        assert nbytes / 2 <= estimate_engine_nbytes(engine) <= 2 * nbytes


def test_put_graph_leaves_the_callers_graph_alone():
    graph = random_regular_graph(64, 4, seed=2)
    adjacency = graph.adj  # built before the put, and stays the caller's
    store = MemoryStore()
    store.put_graph("g", graph)
    stored = store.get_graph("g")
    assert stored is not graph and stored._adj is None
    assert stored.csr() == graph.csr() and graph.adj is adjacency
    assert stored.adj  # a reader's adjacency lists stay on the reader's object
    assert store.get_graph("g")._adj is None


# -- the state machine ----------------------------------------------------------

DIGESTS = ("r1:a", "r1:b", "u1:c")


def _graph(i: int) -> Graph:
    return Graph(3 + i, [(0, 1), (1, 2)])


def _result(i: int) -> ColoringResult:
    n = 3 + 4 * i  # results of different sizes: different estimates
    return ColoringResult(
        algorithm="test", n=n, delta=2, palette=3,
        colors=tuple(1 + (v % 3) for v in range(n)), rounds=1, seed=i,
    )


class _Engine:
    """Stands in for a chain-head engine: the store only reads ``n``,
    ``num_edges`` (for the estimate) and ``graph``."""

    def __init__(self, i: int) -> None:
        self.graph = _graph(i)
        self.n, self.num_edges = self.graph.n, self.graph.num_edges


def _lru_keys(store: MemoryStore) -> list[tuple[str, str]]:
    """The store's ``(kind, digest)`` keys, least recently used first."""
    return list(store._entries)


def _nbytes(kind: str, payload) -> int:
    if kind == "result":
        return estimate_result_nbytes(payload)
    if kind == "graph":
        return estimate_graph_nbytes(payload)
    return estimate_engine_nbytes(payload)


class MemoryStoreMachine(RuleBasedStateMachine):
    """:class:`MemoryStore` against a model: an ordered dict of
    ``(kind, digest) -> payload`` (least recently used first) plus, when
    a durable tier is attached, a dict of what it holds."""

    @initialize(
        durable=st.booleans(),
        max_entries=st.integers(1, 4),
        max_bytes=st.sampled_from([None, 1000, 2000, 4000]),
    )
    def setup(self, durable, max_entries, max_bytes):
        self.dir = Path(tempfile.mkdtemp(prefix="memory-store-"))
        self.disk = DurableStore(self.dir) if durable else None
        self.store = MemoryStore(max_entries, max_bytes, durable=self.disk)
        self.max_entries, self.max_bytes = max_entries, max_bytes
        self.lru: OrderedDict[tuple[str, str], object] = OrderedDict()
        self.on_disk: dict[tuple[str, str], object] = {}
        self.popped: list[object] = []

    def teardown(self):
        if getattr(self, "disk", None) is not None:
            self.disk.close()
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- the model -----------------------------------------------------------

    def _insert(self, kind, digest, payload):
        self.lru.pop((kind, digest), None)
        self.lru[(kind, digest)] = payload
        expected = []
        while len(self.lru) > self.max_entries or (
            self.max_bytes is not None
            and sum(_nbytes(k, p) for (k, _), p in self.lru.items()) > self.max_bytes
            and len(self.lru) > 1
        ):
            expected.append(self.lru.popitem(last=False)[0])
        return expected

    def _check_insert(self, kind, digest, payload):
        others = {key for key in self.lru if key[1] == digest and key[0] != kind}
        expected = self._insert(kind, digest, payload)
        assert _lru_keys(self.store) == list(self.lru), "victim is not the model's LRU entry"
        # other kinds under the same digest leave only as LRU victims
        assert others - set(self.lru) <= set(expected)

    # -- rules ---------------------------------------------------------------

    @rule(digest=st.sampled_from(DIGESTS), i=st.integers(0, 40))
    def put(self, digest, i):
        result = _result(i)
        self.store.put(digest, result)
        self._check_insert("result", digest, result)
        if self.disk is not None:
            self.on_disk.setdefault(("result", digest), result)

    @rule(digest=st.sampled_from(DIGESTS), i=st.integers(0, 40))
    def put_graph(self, digest, i):
        graph = _graph(i)
        self.store.put_graph(digest, graph)
        self._check_insert("graph", digest, graph)
        if self.disk is not None:
            self.on_disk.setdefault(("graph", digest), graph)

    @rule(digest=st.sampled_from(DIGESTS), i=st.integers(0, 40))
    def put_engine(self, digest, i):
        engine = _Engine(i)
        self.store.put_engine(digest, engine)
        self._check_insert("engine", digest, engine)

    @rule(digest=st.sampled_from(DIGESTS))
    def pop_engine(self, digest):
        engine = self.store.pop_engine(digest)
        expected = self.lru.pop(("engine", digest), None)
        assert engine is expected
        if engine is not None:
            assert not any(engine is old for old in self.popped), "a head handed out twice"
            self.popped.append(engine)
            assert self.store.pop_engine(digest) is None

    @rule(digest=st.sampled_from(DIGESTS))
    def get(self, digest):
        got = self.store.get(digest)
        key = ("result", digest)
        if key in self.lru:
            assert got is self.lru[key]
            self.lru.move_to_end(key)
        elif key in self.on_disk:
            assert got is not None
            assert got.content_digest() == self.on_disk[key].content_digest()
            self._insert("result", digest, got)  # promoted
        else:
            assert got is None
        assert _lru_keys(self.store) == list(self.lru)

    @rule(digest=st.sampled_from(DIGESTS))
    def get_graph(self, digest):
        got = self.store.get_graph(digest)
        for kind in ("graph", "engine"):
            key = (kind, digest)
            if key in self.lru:
                payload = self.lru[key]
                if kind == "graph":  # the store keeps a CSR-only view
                    assert got.csr() == payload.csr()
                else:
                    assert got is payload.graph
                self.lru.move_to_end(key)
                break
        else:
            key = ("graph", digest)
            if key in self.on_disk:
                assert got is not None and got.csr() == self.on_disk[key].csr()
                self._insert("graph", digest, got)  # promoted
            else:
                assert got is None
        assert _lru_keys(self.store) == list(self.lru)

    @rule(digest=st.sampled_from(DIGESTS))
    def evict(self, digest):
        key = ("result", digest)
        held = key in self.lru or key in self.on_disk
        assert self.store.evict(digest) is held
        self.lru.pop(key, None)
        self.on_disk.pop(key, None)

    @rule(digest=st.sampled_from(DIGESTS))
    def evict_graph(self, digest):
        keys = [("graph", digest), ("engine", digest)]
        held = any(key in self.lru for key in keys) or keys[0] in self.on_disk
        assert self.store.evict_graph(digest) is held
        for key in keys:
            self.lru.pop(key, None)
        self.on_disk.pop(keys[0], None)

    @precondition(lambda self: self.disk is not None)
    @rule()
    def restart_memory_tier(self):
        """Drop the memory tier: durable results and graphs read back,
        engines do not."""
        self.store.clear()
        self.lru.clear()
        for (kind, digest), payload in list(self.on_disk.items()):
            if kind == "result":
                got = self.store.get(digest)
                assert got is not None
                assert got.content_digest() == payload.content_digest()
                self._insert(kind, digest, got)
            else:
                got = self.store.get_graph(digest)
                assert got is not None and got.csr() == payload.csr()
                self._insert(kind, digest, got)
            assert _lru_keys(self.store) == list(self.lru)
        for digest in DIGESTS:
            assert self.store.pop_engine(digest) is None

    # -- invariants ----------------------------------------------------------

    @invariant()
    def bytes_are_the_sum_of_live_estimates(self):
        if not hasattr(self, "store"):
            return
        stats = self.store.stats()
        live = sum(_nbytes(kind, payload) for (kind, _), payload in self.lru.items())
        assert stats["cache"]["bytes"] + stats["graph_store"]["bytes"] == live
        entries = stats["cache"]["entries"] + stats["graph_store"]["entries"]
        assert entries == len(self.lru) == len(self.store)
        chains = sum(1 for kind, _ in self.lru if kind == "engine")
        assert stats["graph_store"]["chains"] == chains

    @invariant()
    def bounds_hold(self):
        if not hasattr(self, "store"):
            return
        assert len(self.store) <= self.max_entries
        if self.max_bytes is not None and len(self.store) > 1:
            stats = self.store.stats()
            assert stats["cache"]["bytes"] + stats["graph_store"]["bytes"] <= self.max_bytes


TestMemoryStoreMachine = MemoryStoreMachine.TestCase
TestMemoryStoreMachine.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
