"""Connection-level behaviour of the clients and the router's shard links.

Every case runs against a scripted peer instead of a real server, so the
failure lands exactly where the test wants it: a peer that hangs up
after a reply, one that hangs up with requests in flight, one that
answers with a garbled line or with an ``ok`` reply missing its fields.
Each must end in a typed :class:`ServiceProtocolError` (or, through the
router, the retriable ``overloaded`` reply) and never in a hang, a raw
``KeyError``/``JSONDecodeError`` or a task exception nobody retrieves;
and the next request on the same async connection must reconnect.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading

import pytest

from repro.errors import ServiceOverloadedError, ServiceProtocolError
from repro.service import AsyncColoringClient, ColoringClient
from repro.service.client import NdjsonConnection
from repro.service.server import encode_line
from repro.service.sharding import ShardRouter
from repro.service.sharding.worker import ShardWorker

#: A tiny solvable payload (the router fingerprints it before forwarding).
PATH = (3, [(0, 1), (1, 2)])


def _pong(request):
    return encode_line({"id": request.get("id"), "ok": True, "pong": True})


def _stats(request):
    return encode_line({"id": request.get("id"), "ok": True, "stats": {"cache": {}}})


def _silent(request):
    return None


def _garbled(request):
    return b"not json\n"


def _bare_ok(request):
    return encode_line({"id": request.get("id"), "ok": True})


def _script(reply, requests=None):
    """A connection handler: answer each request line with
    ``reply(request)`` (bytes, or None for no answer); hang up after
    ``requests`` lines, or when the client does."""

    async def run(reader, writer):
        seen = 0
        while requests is None or seen < requests:
            line = await reader.readline()
            if not line:
                return
            seen += 1
            answer = reply(json.loads(line))
            if answer is not None:
                writer.write(answer)
                await writer.drain()

    return run


class _Peer:
    """A scripted asyncio peer: connection k runs ``scripts[k]`` (the last
    script serves every later connection)."""

    def __init__(self, *scripts):
        self.scripts = scripts
        self.connections = 0
        self.hangups = 0

    async def __aenter__(self) -> "_Peer":
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc) -> None:
        self.server.close()
        await asyncio.wait_for(self.server.wait_closed(), 5)

    async def _handle(self, reader, writer):
        script = self.scripts[min(self.connections, len(self.scripts) - 1)]
        self.connections += 1
        try:
            await script(reader, writer)
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
            self.hangups += 1


@contextlib.contextmanager
def _blocking_peer(reply):
    """A one-connection peer on a thread for the blocking client."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        with contextlib.suppress(OSError):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                for line in lines:
                    conn.sendall(reply(json.loads(line)))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(5)


def _run(coro):
    """Run ``coro``; fail on any exception the loop reports unretrieved."""
    unhandled = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        return await asyncio.wait_for(coro, 20)

    result = asyncio.run(main())
    assert unhandled == []
    return result


class TestAsyncConnectionLoss:
    def test_request_after_peer_hangs_up_reconnects(self):
        async def drive():
            async with _Peer(_script(_pong, requests=1), _script(_pong)) as peer:
                async with AsyncColoringClient(port=peer.port) as client:
                    assert await client.ping()
                    while peer.hangups < 1:
                        await asyncio.sleep(0.001)
                    # a request racing the hang-up may fail typed; the
                    # next one must reach the peer over a new connection
                    failures = []
                    for _ in range(2):
                        try:
                            assert await asyncio.wait_for(client.ping(), 5)
                            break
                        except ServiceProtocolError as exc:
                            failures.append(exc)
                    else:
                        pytest.fail(f"never reconnected: {failures}")
                return peer.connections

        assert _run(drive()) == 2

    def test_hang_up_fails_every_in_flight_request_typed(self):
        async def drive():
            async with _Peer(_script(_silent, requests=3), _script(_pong)) as peer:
                async with AsyncColoringClient(port=peer.port) as client:
                    outcomes = await asyncio.wait_for(
                        asyncio.gather(
                            *(client.ping() for _ in range(3)),
                            return_exceptions=True,
                        ),
                        5,
                    )
                    assert all(isinstance(o, ServiceProtocolError) for o in outcomes)
                    assert "closed the connection" in str(outcomes[0])
                    assert await asyncio.wait_for(client.ping(), 5)
                return peer.connections

        assert _run(drive()) == 2

    def test_unencodable_request_leaves_nothing_in_flight(self):
        async def drive():
            async with _Peer(_script(_pong)) as peer:
                async with AsyncColoringClient(port=peer.port) as client:
                    with pytest.raises(TypeError):
                        await client.solve(PATH, {"seed": object()})
                    assert client._pending == {}
                    assert await client.ping()

        _run(drive())

    def test_refused_connect_is_typed(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]

        async def drive():
            client = AsyncColoringClient(port=port)
            with pytest.raises(ServiceProtocolError, match="cannot connect"):
                await client.connect()
            with pytest.raises(ServiceProtocolError, match="cannot connect"):
                await client.ping()

        _run(drive())


class TestGarbledReply:
    def test_async_client_names_the_line_and_reconnects(self):
        async def drive():
            async with _Peer(_script(_garbled), _script(_pong)) as peer:
                async with AsyncColoringClient(port=peer.port) as client:
                    with pytest.raises(ServiceProtocolError, match="not json"):
                        await asyncio.wait_for(client.ping(), 5)
                    assert await asyncio.wait_for(client.ping(), 5)

        _run(drive())

    def test_sync_client_names_the_line(self):
        with _blocking_peer(_garbled) as port:
            with ColoringClient(port=port, timeout=5) as client:
                with pytest.raises(ServiceProtocolError, match="not json"):
                    client.ping()

    def test_shard_worker_ping_is_false(self):
        class Running:
            def poll(self):
                return None

        worker = ShardWorker("shard-0")
        worker.process = Running()
        with _blocking_peer(_garbled) as port:
            worker.port = port
            assert worker.ping(timeout_s=5) is False


class TestMissingReplyFields:
    def test_sync_client(self):
        with _blocking_peer(_bare_ok) as port:
            with ColoringClient(port=port, timeout=5) as client:
                with pytest.raises(ServiceProtocolError, match="'result'"):
                    client.solve(PATH)
                with pytest.raises(ServiceProtocolError, match="'stats'"):
                    client.stats()

    def test_async_client(self):
        async def drive():
            async with _Peer(_script(_bare_ok)) as peer:
                async with AsyncColoringClient(port=peer.port) as client:
                    with pytest.raises(ServiceProtocolError, match="'result'"):
                        await client.solve(PATH)
                    with pytest.raises(ServiceProtocolError, match="'stats'"):
                        await client.stats()
                    with pytest.raises(ServiceProtocolError, match="'metrics'"):
                        await client.metrics()

        _run(drive())


class TestLinks:
    def test_repointed_link_serves_the_next_request(self):
        async def drive():
            async with _Peer(_script(_pong)) as old, _Peer(_script(_pong)) as new:
                link = NdjsonConnection("127.0.0.1", old.port)
                try:
                    assert (await link.request({"op": "ping"})).get("pong")
                    link.update_address("127.0.0.1", new.port)
                    assert (await link.request({"op": "ping"})).get("pong")
                finally:
                    await link.close()
                return old.connections, new.connections

        assert _run(drive()) == (1, 1)

    def test_router_fails_in_flight_forwards_typed_then_reconnects(self):
        graphs = [(3, [(0, 1), (1, 2)]), (4, [(0, 1), (2, 3)]), (4, [(0, 1), (1, 2)])]

        async def drive():
            async with _Peer(_script(_silent, requests=3), _script(_stats)) as shard:
                router = ShardRouter([("127.0.0.1", shard.port)], port=0)
                await router.start()
                try:
                    async with AsyncColoringClient(port=router.port) as client:
                        outcomes = await asyncio.gather(
                            *(client.solve(g) for g in graphs),
                            return_exceptions=True,
                        )
                        stats = await client.stats()
                finally:
                    await router.close()
                return outcomes, stats, router.unavailable, shard.connections

        outcomes, stats, unavailable, connections = _run(drive())
        assert all(isinstance(o, ServiceOverloadedError) for o in outcomes)
        assert unavailable == 3
        # the stats fan-out reached the shard again, over a new connection
        assert stats["router"]["alive"] == 1
        assert connections == 2
