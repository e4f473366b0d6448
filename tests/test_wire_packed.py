"""The packed edge wire form (``graph.edges_b64``) against the list form.

Both forms of a ``solve`` graph payload decode into one flat buffer of
interleaved endpoint pairs, and one path — :func:`repro.service.
fingerprint.edge_keys` — range-checks, packs and sorts their keys.  So
on every payload shape here (rrg Δ=3 and Δ=8, a torus, the empty graph,
isolated nodes, a duplicate edge) the two forms must give:

* equal edge keys and equal fingerprints;
* equal built CSR buffers (or the same ``GraphError``);
* identical server replies.

Also pinned: one graph digest and one request digest as literals (the
``r1:`` contract cannot drift with the wire form), the kernel's
``edge_keys`` against its Python twin (radix passes for every bit width,
``n`` up to ``2**31``), the big-endian byte order, and every malformed
packed payload refused as a ``protocol`` error by the server and by the
router, with the connection serving on afterwards.
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import struct
from array import array

import pytest

from repro import native
from repro.api import ColoringResult, SolverConfig
from repro.errors import GraphError, ServiceProtocolError
from repro.graphs.generators import random_regular_graph, torus_grid
from repro.graphs.graph import Graph
from repro.service import ColoringServer, ShardRouter
from repro.service.client import graph_payload
from repro.service.fingerprint import (
    SortedKeys,
    _edge_keys_python,
    edge_keys,
    edge_keys_fingerprint,
    graph_fingerprint,
    request_fingerprint,
)
from repro.service.server import (
    _unpack_edge_pairs,
    pack_edge_pairs,
    parse_graph_payload,
)


def b64(values: list[int]) -> str:
    """Little-endian int32s, base64: the packed form, built independently."""
    return base64.b64encode(struct.pack(f"<{len(values)}i", *values)).decode()


def list_payload(n: int, edges: list[tuple[int, int]]) -> dict:
    return {"n": n, "edges": [list(e) for e in edges]}


def packed_payload(n: int, edges: list[tuple[int, int]]) -> dict:
    return {"n": n, "edges_b64": b64([w for e in edges for w in e])}


CASES = [
    ("rrg-d3", 60, list(random_regular_graph(60, 3, seed=1).edges())),
    ("rrg-d8", 64, list(random_regular_graph(64, 8, seed=2).edges())),
    ("torus", 42, list(torus_grid(6, 7).edges())),
    ("empty", 0, []),
    ("isolated-nodes", 9, [(0, 8), (5, 2)]),
    ("duplicate-edge", 4, [(0, 1), (2, 3), (1, 0)]),
]
CASE_IDS = [case[0] for case in CASES]


def built(payload: dict):
    """The built graph's CSR bytes, or the construction error's text."""
    try:
        graph = parse_graph_payload(payload).build()
    except GraphError as exc:
        return f"GraphError: {exc}"
    offsets, indices = graph.csr()
    return graph.n, offsets.tobytes(), indices.tobytes()


class TestParity:
    @pytest.mark.parametrize("name,n,edges", CASES, ids=CASE_IDS)
    def test_keys_fingerprint_and_build_agree(self, name, n, edges):
        as_list = parse_graph_payload(list_payload(n, edges))
        packed = parse_graph_payload(packed_payload(n, edges))
        assert as_list.n == packed.n == n
        assert as_list.pairs == packed.pairs
        assert isinstance(packed.edge_keys, SortedKeys)
        assert as_list.edge_keys == packed.edge_keys
        assert list(packed.edge_keys) == sorted(
            (min(u, v) << 32) | max(u, v) for u, v in edges
        )
        assert edge_keys_fingerprint(n, packed.edge_keys) == edge_keys_fingerprint(
            n, as_list.edge_keys
        )
        # sorting a plain iterable of the same keys gives the same digest
        assert edge_keys_fingerprint(n, reversed(list(packed.edge_keys))) == (
            edge_keys_fingerprint(n, packed.edge_keys)
        )
        graph_or_error = built(list_payload(n, edges))
        assert graph_or_error == built(packed_payload(n, edges))
        if name == "duplicate-edge":
            assert str(graph_or_error).startswith("GraphError")
        else:
            graph = Graph(n, edges)
            assert graph_fingerprint(graph) == edge_keys_fingerprint(n, packed.edge_keys)

    @pytest.mark.parametrize("name,n,edges", CASES[:-1], ids=CASE_IDS[:-1])
    def test_clients_send_the_packed_form(self, name, n, edges):
        graph = Graph(n, edges)
        for shape in (graph, (n, edges)):
            payload = graph_payload(shape)
            assert set(payload) == {"n", "edges_b64"}
            assert graph_fingerprint(parse_graph_payload(payload).build()) == (
                graph_fingerprint(graph)
            )
        assert graph_payload(graph) == packed_payload(n, list(graph.edges()))
        hand_written = list_payload(n, edges)
        assert graph_payload(hand_written) is hand_written

    @pytest.mark.parametrize("shape", [
        (3, [(0, 1, 2)]),  # not pairs: must not re-pair into other edges
        (3, [(0, 2**40)]),  # past int32
        (3, [(0, 1.5)]),  # not an int
        ("3", [(0, 1)]),  # n not an int
    ])
    def test_tuples_that_cannot_pack_go_as_lists(self, shape):
        n, edges = shape
        assert graph_payload(shape) == {"n": n, "edges": [list(e) for e in edges]}

    def test_golden_digests(self):
        """One graph and one request digest, pinned as literals: the
        packed form and the list form hash exactly as before it."""
        graph = random_regular_graph(64, 8, seed=2)
        graph_digest = "ee3cea322f5a178d52b9a7c65ae84a065a8826e4d08ad1bedeec01701c4ab6d3"
        request_digest = "b46d8267b65ad8dd1b289a204d8cf3950c27b580c811dc1fee33e9c307b2d14e"
        assert graph_fingerprint(graph) == graph_digest
        assert request_fingerprint(graph, SolverConfig(seed=1)) == request_digest
        for payload in (graph_payload(graph), list_payload(64, list(graph.edges()))):
            parsed = parse_graph_payload(payload)
            assert edge_keys_fingerprint(parsed.n, parsed.edge_keys) == graph_digest


class TestEdgeKeysTwin:
    """The kernel's ``edge_keys`` (range check, packing, LSD radix sort)
    against ``_edge_keys_python``."""

    @staticmethod
    def assert_twins_agree(n: int, pairs: array, python_twins) -> SortedKeys:
        got = edge_keys(n, pairs)
        twin = python_twins(edge_keys, n, pairs)
        assert got == twin == _edge_keys_python(n, pairs)
        assert isinstance(got, SortedKeys) and isinstance(twin, SortedKeys)
        return got

    @pytest.mark.parametrize("n", [1, 2, 3, 2047, 2048, 2049, 4_194_305, 2**31 - 1, 2**31])
    def test_every_radix_width(self, n, python_twins):
        rng = random.Random(n)
        values = [rng.randrange(n) for _ in range(2 * 300)]
        values += [0, n - 1, n - 1, 0, n - 1, n - 1]  # extremes, a self-loop, a repeat
        keys = self.assert_twins_agree(n, array("i", values), python_twins)
        assert list(keys) == sorted(keys) and len(keys) == 303

    def test_empty_and_duplicates(self, python_twins):
        assert len(self.assert_twins_agree(0, array("i"), python_twins)) == 0
        keys = self.assert_twins_agree(5, array("i", [3, 1, 1, 3, 0, 4]), python_twins)
        assert list(keys) == [(0 << 32) | 4, (1 << 32) | 3, (1 << 32) | 3]

    @pytest.mark.parametrize("values", [[0, 5], [5, 0], [-1, 2], [2, -2**31]])
    def test_out_of_range_raises(self, values, python_twins):
        with pytest.raises(ValueError):
            edge_keys(5, array("i", values))
        with pytest.raises(ValueError):
            python_twins(edge_keys, 5, array("i", values))

    @pytest.mark.parametrize("pairs", [array("q", [0, 1]), array("i", [0, 1, 2]), [0, 1]])
    def test_rejects_other_buffers(self, pairs, python_twins):
        for run in (edge_keys, lambda *a: python_twins(edge_keys, *a)):
            with pytest.raises(TypeError):
                run(5, pairs)

    def test_kernel_ran(self, monkeypatch):
        if not native.kernel_status().functions:
            pytest.skip("native kernel not loaded")
        calls = []
        real = native.kernel

        def counted(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(native, "kernel", counted)
        graph_fingerprint(random_regular_graph(40, 3, seed=0))
        assert calls == ["edge_pairs", "edge_keys"]


class TestByteOrder:
    def test_little_endian_on_the_wire(self):
        pairs = array("i", [1, 2, 70000, -3])
        assert pack_edge_pairs(pairs) == b64([1, 2, 70000, -3])
        assert _unpack_edge_pairs(b64([1, 2, 70000, -3])) == pairs

    def test_big_endian_host_swaps(self):
        """A big-endian host holds the pairs byte-swapped in memory: both
        directions swap them, so the wire stays little-endian."""
        native_order = array("i", [1, 2, 70000, -3])
        swapped = array("i", native_order)
        swapped.byteswap()  # what the same values look like on the other host
        assert pack_edge_pairs(swapped, byteorder="big") == pack_edge_pairs(native_order)
        assert _unpack_edge_pairs(b64([1, 2, 70000, -3]), byteorder="big") == swapped


# -- malformed packed payloads -------------------------------------------------

BAD_GRAPHS = {
    "bad-base64": {"n": 4, "edges_b64": "!!not base64!!"},
    "bad-padding": {"n": 4, "edges_b64": "AAAAAAAAAAA"},
    "not-ascii": {"n": 4, "edges_b64": "AAAAAAAAAAÄ="},
    "not-whole-pairs": {"n": 4, "edges_b64": b64([0, 1, 2])},
    "negative-endpoint": {"n": 4, "edges_b64": b64([0, -1])},
    "endpoint-at-n": {"n": 4, "edges_b64": b64([0, 4])},
    "missing-n": {"edges_b64": b64([0, 1])},
    "oversized-n": {"n": 2**31 + 1, "edges_b64": b64([0, 1])},
    "negative-n": {"n": -1, "edges_b64": ""},
    "both-forms": {"n": 4, "edges": [[0, 1]], "edges_b64": b64([0, 1])},
    "not-a-string": {"n": 4, "edges_b64": [0, 1]},
    "null": {"n": 4, "edges_b64": None},
}


@pytest.mark.parametrize("name", list(BAD_GRAPHS))
def test_parse_refuses(name):
    with pytest.raises(ServiceProtocolError):
        parse_graph_payload(BAD_GRAPHS[name])


async def _ask_all(port: int, requests: list[dict]) -> list[dict]:
    reader, writer = await asyncio.open_connection(port=port)
    replies = []
    try:
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            replies.append(json.loads(await asyncio.wait_for(reader.readline(), 60)))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


async def _through(routed: bool, requests: list[dict]) -> list[dict]:
    """``requests`` over one connection to a server, or to a one-shard
    router in front of one."""
    server = ColoringServer(port=0)
    address = await server.start()
    router = None
    try:
        if routed:
            router = ShardRouter([address], port=0)
            await router.start()
        return await _ask_all(router.port if router else server.port, requests)
    finally:
        if router is not None:
            await router.close()
        await server.close()


@pytest.mark.parametrize("routed", [False, True], ids=["server", "router"])
def test_bad_packed_payloads_are_protocol_errors(routed):
    graph = random_regular_graph(40, 3, seed=4)
    bad = [
        {"id": k, "op": "solve", "graph": payload}
        for k, payload in enumerate(BAD_GRAPHS.values())
    ]
    after = [
        {"id": "ping", "op": "ping"},
        {"id": "good", "op": "solve", "graph": graph_payload(graph)},
    ]
    replies = asyncio.run(_through(routed, bad + after))
    for name, reply in zip(BAD_GRAPHS, replies):
        assert not reply["ok"], name
        assert reply["error"]["type"] == "protocol", (name, reply)
        assert reply["error"]["name"] == "ServiceProtocolError", (name, reply)
    ping, good = replies[len(bad):]
    assert ping["ok"] and ping["pong"]
    assert good["ok"] and good["fingerprint"] == request_fingerprint(graph, SolverConfig())


def _timeless(reply: dict) -> dict:
    """A reply with its result replaced by the result's content digest
    (everything but the measured wall times)."""
    if "result" not in reply:
        return reply
    result = ColoringResult.from_dict(reply["result"])
    return {**reply, "result": result.content_digest()}


@pytest.mark.parametrize("name,n,edges", CASES, ids=CASE_IDS)
def test_replies_identical(name, n, edges):
    """The same request in each form, each to a fresh server: the same
    reply, wall times aside (a miss, then a hit)."""
    config = {"algorithm": "greedy", "seed": 1}

    def requests(payload):
        return [{"id": k, "op": "solve", "graph": payload, "config": config} for k in (1, 2)]

    as_list = asyncio.run(_through(False, requests(list_payload(n, edges))))
    packed = asyncio.run(_through(False, requests(packed_payload(n, edges))))
    assert [_timeless(r) for r in as_list] == [_timeless(r) for r in packed]
    if name == "duplicate-edge":
        assert as_list[0]["error"]["type"] == "protocol"
    else:
        assert [r["cached"] for r in packed] == [False, True]
