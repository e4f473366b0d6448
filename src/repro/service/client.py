"""Clients for the NDJSON coloring service (wire format in
:mod:`repro.service.server`).

Every verb is written once, sans IO, in :class:`_Verbs`.
:class:`ColoringClient` drives it over one blocking socket (scripts, the
CLI, executor threads); :class:`AsyncColoringClient` over an
:class:`NdjsonConnection`, the pipelined transport the shard router's
links use too.  A lost connection, a reply line that is not a JSON
object and an ``ok`` reply missing its fields raise
:class:`repro.errors.ServiceProtocolError`; error replies raise their
typed error.  A solve returns a :class:`SolveReply` whose ``result`` is
a :class:`repro.api.ColoringResult`, digest-equal to the server's.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json
import socket
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Generator, Self

from repro.api.config import SolverConfig
from repro.api.result import ColoringResult
from repro.core.incremental import check_delta
from repro.errors import (
    IncrementalUpdateError,
    ReproError,
    ServiceOverloadedError,
    ServiceProtocolError,
    StaleParentError,
)
from repro.graphs.graph import Graph
from repro.service.server import (
    MAX_LINE_BYTES,
    encode_line,
    graph_from_payload,
    pack_edge_pairs,
)

__all__ = ["SolveReply", "ColoringClient", "AsyncColoringClient", "NdjsonConnection",
           "RemoteEngineError"]

#: A verb in flight: yields requests, is sent their replies, returns the result.
Exchange = Generator[dict[str, Any], dict[str, Any], Any]
_Pending = dict[int, asyncio.Future]


class RemoteEngineError(ReproError):
    """The server's engine rejected the instance (``error.type == "engine"``)."""


@dataclass(frozen=True)
class SolveReply:
    """One successful solve (or update) round-trip.

    For ``update`` replies, ``fingerprint`` is the *child* digest —
    pass it as the next ``parent_digest`` to chain further updates —
    and ``update``/``parent_digest`` carry the repair statistics and
    lineage; both are None for plain solves.
    """

    result: ColoringResult
    cached: bool
    fingerprint: str
    node_ids: list[int] | None = None
    parent_digest: str | None = None
    update: dict[str, Any] | None = None


def graph_payload(graph: Any) -> dict[str, Any]:
    """Coerce a :class:`Graph` / ``(n, edges)`` / raw dict into the wire shape.

    A graph or a tuple goes out in the packed form, ``{"n", "edges_b64"}``
    (a graph's straight from :meth:`Graph.edge_pairs`); a dict passes
    through unchanged.  A tuple whose ``n`` or edges cannot pack (not an
    int, not pairs, an endpoint past int32) goes out as the list form,
    so the server answers it with its usual typed refusal.
    """
    if isinstance(graph, Graph):
        return {"n": graph.n, "edges_b64": pack_edge_pairs(graph.edge_pairs())}
    if isinstance(graph, dict):
        return graph
    if isinstance(graph, tuple) and len(graph) == 2:
        n, edges = graph
        edge_lists = [list(e) for e in edges]
        try:
            if type(n) is int and set(map(len, edge_lists)) <= {2}:
                pairs = array("i", itertools.chain.from_iterable(edge_lists))
                return {"n": n, "edges_b64": pack_edge_pairs(pairs)}
        except (OverflowError, TypeError):
            pass
        return {"n": n, "edges": edge_lists}
    raise ServiceProtocolError(
        f"cannot build a graph payload from {type(graph).__name__}"
    )


def config_payload(config: SolverConfig | dict | None, overrides: dict) -> Any:
    if isinstance(config, SolverConfig):
        if overrides:
            config = config.replace(**overrides)
        return config.as_dict()
    if config is None:
        return overrides or None
    if isinstance(config, dict):
        return {**config, **overrides}
    raise ServiceProtocolError(
        f"config must be SolverConfig, dict, or None, got {type(config).__name__}"
    )


def _request(op: str, config: Any, overrides: dict, **fields: Any) -> dict[str, Any]:
    request = {"op": op, **fields}
    cfg = config_payload(config, overrides)
    if cfg is not None:
        request["config"] = cfg
    return request


def _decode_reply(line: bytes) -> dict[str, Any]:
    """One reply line as a dict, or a :class:`ServiceProtocolError` naming it."""
    try:
        reply = json.loads(line)
    except ValueError:  # bad JSON or bad UTF-8
        reply = None
    if not isinstance(reply, dict):
        raise ServiceProtocolError(f"garbled reply line {line[:120]!r}")
    return reply


#: Typed error per reply ``error.type``; any other type is a protocol error.
_ERROR_TYPES: dict[Any, type[ReproError]] = {
    "overloaded": ServiceOverloadedError,
    "engine": RemoteEngineError,
    "stale_parent": StaleParentError,
    "update": IncrementalUpdateError,
}


def _raise_for_error(reply: dict[str, Any]) -> None:
    error = reply.get("error")
    if not isinstance(error, dict):
        error = {}
    message = f"{error.get('name', 'error')}: {error.get('message', '')}"
    raise _ERROR_TYPES.get(error.get("type"), ServiceProtocolError)(message)


def _reply_field(reply: dict[str, Any], key: str) -> Any:
    """Field ``key`` of an ``ok`` reply.  An error reply raises its typed
    error; an ``ok`` reply without ``key`` is a protocol error."""
    if not reply.get("ok"):
        _raise_for_error(reply)
    value = reply.get(key)
    if value is None:
        raise ServiceProtocolError(f"ok reply is missing {key!r}")
    return value


def _parse_solve_reply(reply: dict[str, Any]) -> SolveReply:
    result = _reply_field(reply, "result")
    try:
        parsed = ColoringResult.from_dict(result)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ServiceProtocolError(f"malformed result in reply ({exc!r})") from exc
    return SolveReply(
        result=parsed,
        cached=bool(reply.get("cached")),
        fingerprint=str(_reply_field(reply, "fingerprint")),
        node_ids=reply.get("node_ids"),
        parent_digest=reply.get("parent_digest"),
        update=reply.get("update"),
    )


def _fallback_child_graph(
    fallback_graph: Any,
    edges_added: list[tuple[int, int]],
    edges_removed: list[tuple[int, int]],
) -> Graph:
    """The child graph the stale-parent fallback solves: the delta applied
    locally to ``fallback_graph`` (the parent, in any :func:`graph_payload`
    shape), checked first by the engine's own
    :func:`repro.core.incremental.check_delta` so a bad delta raises the
    same typed error whether or not the parent was still cached."""
    if not isinstance(fallback_graph, Graph):
        fallback_graph, _ = graph_from_payload(graph_payload(fallback_graph))
    check_delta(fallback_graph, edges_added, edges_removed)
    return fallback_graph.apply_updates(edges_added, edges_removed)


class _Verbs:
    """Every verb of the protocol as an :data:`Exchange`; :func:`_blocking`
    and :func:`_awaiting` make client methods of them."""

    def solve(self, graph: Any, config: SolverConfig | dict | None = None,
              **overrides: Any) -> Exchange:
        """Solve remotely; mirrors :func:`repro.api.solve`'s signature."""
        request = _request("solve", config, overrides, graph=graph_payload(graph))
        return _parse_solve_reply((yield request))

    def update(
        self,
        parent_digest: str,
        edges_added: Any = (),
        edges_removed: Any = (),
        config: SolverConfig | dict | None = None,
        *,
        fallback_graph: Any = None,
        **overrides: Any,
    ) -> Exchange:
        """Apply an edge delta to a previously served instance.

        ``parent_digest`` is the ``fingerprint`` of an earlier solve (or
        update) reply; the returned reply's ``fingerprint`` is the child
        digest for chaining.

        When the server evicted the parent it answers ``stale_parent``;
        passing the parent instance as ``fallback_graph`` (any shape
        :meth:`solve` accepts) turns that error into an automatic
        re-solve: the delta is applied locally and the *child* graph is
        solved fresh — one round trip that re-seeds the server's graph
        store, so the reply's ``fingerprint`` is again a valid parent
        for further updates (``update`` and ``parent_digest`` are None
        on such a re-seeded reply, distinguishing it from a repair).
        Without ``fallback_graph``,
        :class:`repro.errors.StaleParentError` propagates for the caller
        to handle.
        """
        # Materialize once: the wire request and the fallback both read
        # the deltas, and a generator argument must not arrive drained.
        edges_added = [tuple(e) for e in edges_added]
        edges_removed = [tuple(e) for e in edges_removed]
        request = _request("update", config, overrides, parent_digest=parent_digest,
                           edges_added=[list(e) for e in edges_added],
                           edges_removed=[list(e) for e in edges_removed])
        try:
            return _parse_solve_reply((yield request))
        except StaleParentError:
            if fallback_graph is None:
                raise
        child = _fallback_child_graph(fallback_graph, edges_added, edges_removed)
        return (yield from _Verbs.solve(self, child, config, **overrides))

    def stats(self) -> Exchange:
        """The server's gateway, cache and metrics snapshot (against a
        router, the merged cluster view plus ``router``/``shards``)."""
        return _reply_field((yield {"op": "stats"}), "stats")

    def metrics(self, *, format: str = "json") -> Exchange:
        """The server's instrument registry snapshot.

        ``format="json"`` returns the snapshot dict
        (:meth:`repro.obs.meters.MetricsRegistry.as_dict` shape — against
        a router, the merged fleet view); ``format="prometheus"`` returns
        the text exposition as a string.
        """
        reply = yield {"op": "metrics", "format": format}
        return _reply_field(reply, "metrics_text" if format == "prometheus" else "metrics")

    def ping(self) -> Exchange:
        """True when the server answers ``pong``."""
        reply = yield {"op": "ping"}
        return bool(reply.get("ok")) and bool(reply.get("pong"))


def _blocking(verb: Callable[..., Exchange]) -> Callable[..., Any]:
    @functools.wraps(verb)
    def call(self: ColoringClient, *args: Any, **kwargs: Any) -> Any:
        exchange = verb(self, *args, **kwargs)
        try:
            request = next(exchange)
            while True:
                request = exchange.send(self._roundtrip(request))
        except StopIteration as done:
            return done.value
    return call


def _awaiting(verb: Callable[..., Exchange]) -> Callable[..., Any]:
    @functools.wraps(verb)
    async def call(self: AsyncColoringClient, *args: Any, **kwargs: Any) -> Any:
        exchange = verb(self, *args, **kwargs)
        try:
            request = next(exchange)
            while True:
                request = exchange.send(await self.request(request))
        except StopIteration as done:
            return done.value
    return call


class ColoringClient:
    """Blocking NDJSON client (one request in flight at a time).

    The constructor connects (a refused connect raises ``OSError``);
    ``timeout`` bounds each socket operation (``TimeoutError``).

    Usage::

        with ColoringClient("127.0.0.1", 8512) as client:
            reply = client.solve(graph, algorithm="auto", seed=1)
            print(reply.result.palette, reply.cached)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8512, timeout: float | None = 60.0):
        self._address = f"{host}:{port}"
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    def _roundtrip(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = next(self._ids)
        request["id"] = request_id
        try:
            self._sock.sendall(encode_line(request))
            while True:
                line = self._reader.readline()
                if not line:
                    raise ServiceProtocolError(f"{self._address} closed the connection")
                reply = _decode_reply(line)
                if reply.get("id") == request_id:
                    return reply
        except ConnectionError as exc:
            raise ServiceProtocolError(
                f"{self._address} dropped the connection ({type(exc).__name__})"
            ) from exc

    solve = _blocking(_Verbs.solve)
    update = _blocking(_Verbs.update)
    stats = _blocking(_Verbs.stats)
    metrics = _blocking(_Verbs.metrics)
    ping = _blocking(_Verbs.ping)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ColoringClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NdjsonConnection:
    """One pipelined NDJSON connection, connected lazily.

    Requests in flight get connection-local ids (overwriting ``id``) and
    their replies are matched back by them.  A refused connect raises
    :class:`ServiceProtocolError`; a failed write, a hang-up, a reset or
    a garbled line fails every request in flight on that connection with
    one, and the next request reconnects.  Only connecting takes a lock.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8512):
        self.host, self.port = host, port
        self._writer: asyncio.StreamWriter | None = None
        self._pending: _Pending = {}
        self._read_task: asyncio.Task | None = None
        self._ids = itertools.count(1)
        self._connect_lock = asyncio.Lock()

    async def connect(self) -> Self:
        """Connect now instead of on the first request."""
        await self._connected()
        return self

    def update_address(self, host: str, port: int) -> None:
        """Point at a new address (a restarted peer); the current
        connection, if any, closes and the next request reconnects."""
        self.host, self.port = host, port
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One round trip: send ``payload``, return its reply dict."""
        writer, pending = self._writer, self._pending
        if writer is None or writer.is_closing():
            writer, pending = await self._connected()
        request_id = next(self._ids)
        payload["id"] = request_id
        line = encode_line(payload)  # before the future exists: a bad payload leaves none behind
        future = asyncio.get_running_loop().create_future()
        pending[request_id] = future
        writer.write(line)
        # drain raises only once the connection is lost, and then
        # _read_loop fails this future with every other one in flight
        with contextlib.suppress(OSError):
            await writer.drain()
        return await future

    async def _connected(self) -> tuple[asyncio.StreamWriter, _Pending]:
        async with self._connect_lock:
            writer = self._writer
            if writer is not None and not writer.is_closing():
                return writer, self._pending
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES
                )
            except OSError as exc:
                raise ServiceProtocolError(
                    f"cannot connect to {self.host}:{self.port} ({type(exc).__name__})"
                ) from exc
            pending: _Pending = {}
            self._writer, self._pending = writer, pending
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader, writer, pending)
            )
            return writer, pending

    async def _read_loop(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                         pending: _Pending) -> None:
        reason = "closed the connection"
        try:
            while line := await reader.readline():
                reply = _decode_reply(line)
                future = pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        # a garbled line, a reset, a line past MAX_LINE_BYTES
        except (ServiceProtocolError, OSError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            if self._writer is writer:
                self._writer = None
            writer.close()
            message = f"{self.host}:{self.port} {reason}; no reply"
            for future in pending.values():
                if not future.done():
                    future.set_exception(ServiceProtocolError(message))
            pending.clear()

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        task, self._read_task = self._read_task, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def __aenter__(self) -> Self:
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class AsyncColoringClient(NdjsonConnection):
    """Pipelined asyncio client: many requests in flight on one
    connection.  ``await AsyncColoringClient(host, port).connect()`` (or
    ``async with``) connects up front; otherwise the first request does."""

    solve = _awaiting(_Verbs.solve)
    update = _awaiting(_Verbs.update)
    stats = _awaiting(_Verbs.stats)
    metrics = _awaiting(_Verbs.metrics)
    ping = _awaiting(_Verbs.ping)
