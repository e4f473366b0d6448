"""Clients for the NDJSON coloring service.

Two flavours over the same wire protocol (see
:mod:`repro.service.server`):

* :class:`ColoringClient` — synchronous, one blocking socket, strict
  request→reply alternation.  The ergonomic choice for scripts, the CLI
  and the serve-smoke check.
* :class:`AsyncColoringClient` — asyncio streams with pipelining: many
  ``solve`` coroutines may be in flight on one connection, replies are
  matched by request id.  This is what the open-loop load generator
  (``benchmarks/bench_s1_service.py``) drives, and what actually
  exercises the gateway's micro-batching.

Both round-trip the PR 2 result schema: a successful solve returns a
:class:`SolveReply` whose ``result`` is a real
:class:`repro.api.ColoringResult` rebuilt via ``from_dict``, digest-equal
to the server's object.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
from dataclasses import dataclass
from typing import Any

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

__all__ = ["SolveReply", "ColoringClient", "AsyncColoringClient", "RemoteEngineError"]


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
    """Coerce a :class:`Graph` / ``(n, edges)`` / raw dict into the wire shape."""
    if isinstance(graph, Graph):
        return {"n": graph.n, "edges": [list(e) for e in graph.edges()]}
    if isinstance(graph, dict):
        return graph
    if isinstance(graph, tuple) and len(graph) == 2:
        n, edges = graph
        return {"n": n, "edges": [list(e) for e in edges]}
    raise ServiceProtocolError(
        f"cannot build a graph payload from {type(graph).__name__}"
    )


def config_payload(config: SolverConfig | dict | None, overrides: dict) -> Any:
    if isinstance(config, SolverConfig):
        if overrides:
            config = config.replace(**overrides)
        payload = config.as_dict()
        return payload
    if config is None:
        return overrides or None
    if isinstance(config, dict):
        return {**config, **overrides}
    raise ServiceProtocolError(
        f"config must be SolverConfig, dict, or None, got {type(config).__name__}"
    )


def _raise_for_error(reply: dict[str, Any]) -> None:
    error = reply.get("error") or {}
    kind = error.get("type")
    message = f"{error.get('name', 'error')}: {error.get('message', '')}"
    if kind == "overloaded":
        raise ServiceOverloadedError(message)
    if kind == "engine":
        raise RemoteEngineError(message)
    if kind == "stale_parent":
        raise StaleParentError(message)
    if kind == "update":
        raise IncrementalUpdateError(message)
    raise ServiceProtocolError(message)


def _parse_solve_reply(reply: dict[str, Any]) -> SolveReply:
    if not reply.get("ok"):
        _raise_for_error(reply)
    return SolveReply(
        result=ColoringResult.from_dict(reply["result"]),
        cached=bool(reply["cached"]),
        fingerprint=reply["fingerprint"],
        node_ids=reply.get("node_ids"),
        parent_digest=reply.get("parent_digest"),
        update=reply.get("update"),
    )


def _fallback_child_graph(
    fallback_graph: Any,
    edges_added: list[tuple[int, int]],
    edges_removed: list[tuple[int, int]],
) -> Graph:
    """The post-delta graph for the stale-parent re-solve fallback.

    ``fallback_graph`` is the *parent* instance in any shape
    :func:`graph_payload` accepts; the delta is applied locally (same
    validation as the server's engine would run) to produce the child
    the fallback ``solve`` uploads.  The delta is checked by the
    engine's own :func:`repro.core.incremental.check_delta` first, so a
    bad delta raises the same typed error whether or not the parent was
    still cached.
    """
    if not isinstance(fallback_graph, Graph):
        payload = graph_payload(fallback_graph)
        fallback_graph = Graph(
            payload["n"], [tuple(e) for e in payload["edges"]]
        )
    check_delta(fallback_graph, edges_added, edges_removed)
    return fallback_graph.apply_updates(edges_added, edges_removed)


def _update_request(
    parent_digest: str,
    edges_added: Any,
    edges_removed: Any,
    config: SolverConfig | dict | None,
    overrides: dict,
) -> dict[str, Any]:
    request: dict[str, Any] = {
        "op": "update",
        "parent_digest": parent_digest,
        "edges_added": [list(e) for e in edges_added],
        "edges_removed": [list(e) for e in edges_removed],
    }
    cfg = config_payload(config, overrides)
    if cfg is not None:
        request["config"] = cfg
    return request


class ColoringClient:
    """Blocking NDJSON client (one request in flight at a time).

    Usage::

        with ColoringClient("127.0.0.1", 8512) as client:
            reply = client.solve(graph, algorithm="auto", seed=1)
            print(reply.result.palette, reply.cached)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8512, timeout: float | None = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._ids = itertools.count(1)

    def _roundtrip(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = next(self._ids)
        request["id"] = request_id
        self._sock.sendall(
            (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")
        )
        while True:
            line = self._reader.readline()
            if not line:
                raise ServiceProtocolError("server closed the connection")
            reply = json.loads(line)
            if reply.get("id") == request_id:
                return reply

    def solve(
        self,
        graph: Any,
        config: SolverConfig | dict | None = None,
        **overrides: Any,
    ) -> SolveReply:
        """Solve remotely; mirrors :func:`repro.api.solve`'s signature."""
        request = {"op": "solve", "graph": graph_payload(graph)}
        cfg = config_payload(config, overrides)
        if cfg is not None:
            request["config"] = cfg
        return _parse_solve_reply(self._roundtrip(request))

    def update(
        self,
        parent_digest: str,
        edges_added: Any = (),
        edges_removed: Any = (),
        config: SolverConfig | dict | None = None,
        *,
        fallback_graph: Any = None,
        **overrides: Any,
    ) -> SolveReply:
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
        try:
            return _parse_solve_reply(
                self._roundtrip(
                    _update_request(
                        parent_digest, edges_added, edges_removed, config,
                        overrides,
                    )
                )
            )
        except StaleParentError:
            if fallback_graph is None:
                raise
            child = _fallback_child_graph(fallback_graph, edges_added, edges_removed)
            return self.solve(child, config, **overrides)

    def stats(self) -> dict[str, Any]:
        reply = self._roundtrip({"op": "stats"})
        if not reply.get("ok"):
            _raise_for_error(reply)
        return reply["stats"]

    def metrics(self, *, format: str = "json") -> dict[str, Any] | str:
        """The server's instrument registry snapshot.

        ``format="json"`` returns the snapshot dict
        (:meth:`repro.obs.meters.MetricsRegistry.as_dict` shape — against
        a router, the merged fleet view); ``format="prometheus"`` returns
        the text exposition as a string.
        """
        reply = self._roundtrip({"op": "metrics", "format": format})
        if not reply.get("ok"):
            _raise_for_error(reply)
        return reply["metrics_text" if format == "prometheus" else "metrics"]

    def ping(self) -> bool:
        reply = self._roundtrip({"op": "ping"})
        return bool(reply.get("ok")) and bool(reply.get("pong"))

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ColoringClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncColoringClient:
    """Pipelined asyncio client: many solves in flight on one connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8512):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._reader_task: asyncio.Task | None = None

    async def connect(self) -> "AsyncColoringClient":
        from repro.service.server import MAX_LINE_BYTES

        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ServiceProtocolError("server closed the connection")
                    )
            self._pending.clear()

    async def _roundtrip(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._writer is None:
            raise ServiceProtocolError("client is not connected; call connect()")
        request_id = next(self._ids)
        request["id"] = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            (json.dumps(request, separators=(",", ":")) + "\n").encode("utf-8")
        )
        await self._writer.drain()
        return await future

    async def solve(
        self,
        graph: Any,
        config: SolverConfig | dict | None = None,
        **overrides: Any,
    ) -> SolveReply:
        request = {"op": "solve", "graph": graph_payload(graph)}
        cfg = config_payload(config, overrides)
        if cfg is not None:
            request["config"] = cfg
        return _parse_solve_reply(await self._roundtrip(request))

    async def update(
        self,
        parent_digest: str,
        edges_added: Any = (),
        edges_removed: Any = (),
        config: SolverConfig | dict | None = None,
        *,
        fallback_graph: Any = None,
        **overrides: Any,
    ) -> SolveReply:
        """Async counterpart of :meth:`ColoringClient.update` (including
        the ``fallback_graph`` stale-parent auto re-solve)."""
        edges_added = [tuple(e) for e in edges_added]
        edges_removed = [tuple(e) for e in edges_removed]
        try:
            return _parse_solve_reply(
                await self._roundtrip(
                    _update_request(
                        parent_digest, edges_added, edges_removed, config,
                        overrides,
                    )
                )
            )
        except StaleParentError:
            if fallback_graph is None:
                raise
            child = _fallback_child_graph(fallback_graph, edges_added, edges_removed)
            return await self.solve(child, config, **overrides)

    async def stats(self) -> dict[str, Any]:
        reply = await self._roundtrip({"op": "stats"})
        if not reply.get("ok"):
            _raise_for_error(reply)
        return reply["stats"]

    async def metrics(self, *, format: str = "json") -> dict[str, Any] | str:
        """Async counterpart of :meth:`ColoringClient.metrics`."""
        reply = await self._roundtrip({"op": "metrics", "format": format})
        if not reply.get("ok"):
            _raise_for_error(reply)
        return reply["metrics_text" if format == "prometheus" else "metrics"]

    async def ping(self) -> bool:
        reply = await self._roundtrip({"op": "ping"})
        return bool(reply.get("ok")) and bool(reply.get("pong"))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None

    async def __aenter__(self) -> "AsyncColoringClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()
