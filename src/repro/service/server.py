"""Newline-delimited-JSON coloring server over TCP (stdlib asyncio only).

Protocol (one JSON object per line, UTF-8):

Request::

    {"id": 7, "op": "solve",
     "graph": {"n": 5, "edges": [[0, 1], [1, 2], ...]},
     "config": {"algorithm": "auto", "seed": 0}}

* ``op`` — ``"solve"``, ``"update"`` (edge delta against a served
  instance, addressed by ``parent_digest``; see
  :meth:`ColoringServer._reply_for_update` and docs/INCREMENTAL.md),
  ``"stats"`` (gateway/cache/metrics snapshot), ``"metrics"`` (the
  instrument registry, JSON or Prometheus text — see
  docs/OBSERVABILITY.md) or ``"ping"``.
* ``trace`` (optional) — a ``{"trace_id", "span_id"}`` context from an
  upstream tier; the server continues that trace instead of rooting its
  own (unknown extra fields, this one included, never break old servers).
* ``graph.edges`` — undirected edge pairs.  With ``graph.n`` present the
  ids must be ``0..n-1`` (isolated nodes allowed); without it, arbitrary
  integer ids are compacted ascending — the same normalisation as
  :func:`repro.cli.load_edge_list` — and the reply carries ``node_ids``
  mapping color index back to payload id.
* ``config`` — any subset of the :class:`repro.api.SolverConfig` fields
  (``params`` as a ``RandomizedParams`` field dict).

Reply (order may interleave across a connection's pipelined requests —
match on ``id``)::

    {"id": 7, "ok": true, "cached": false, "fingerprint": "…",
     "result": { …ColoringResult.as_dict()… }}

    {"id": 7, "ok": false,
     "error": {"type": "overloaded", "name": "ServiceOverloadedError",
               "message": "…"}}

``error.type`` comes from :func:`repro.service.metrics.error_kind`, the
same mapping that labels ``repro_errors_total``: ``"overloaded"`` (shed
load, retry with backoff), ``"protocol"`` (malformed request, a
self-loop or duplicate edge included — don't retry), ``"engine"`` (the
solver rejected the instance, e.g. a non-nice graph sent to a
``needs_nice`` algorithm), ``"stale_parent"`` (an ``update`` named a
parent digest the server no longer holds — fall back to a full solve)
or ``"update"`` (a rejected delta: edge already present / not present,
self-loop, bad endpoint).
Each request line is handled in its own task, so one slow solve never
blocks the connection — that concurrency is what feeds the gateway's
micro-batches.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
from array import array
from typing import Any

from repro.api.config import SolverConfig
from repro.core.randomized import RandomizedParams
from repro.errors import ReproError, ServiceProtocolError
from repro.graphs.graph import Graph
from repro.obs.meters import render_prometheus
from repro.obs.trace import Tracer
from repro.service.batcher import BatchingGateway, request_cost
from repro.service.fingerprint import (
    combine_fingerprints,
    config_fingerprint,
    edge_keys_fingerprint,
)
from repro.service.metrics import error_kind

__all__ = [
    "ColoringServer",
    "NdjsonEndpoint",
    "ParsedGraphPayload",
    "parse_graph_payload",
    "parse_edge_pairs",
    "graph_from_payload",
    "config_from_payload",
    "MAX_LINE_BYTES",
    "encode_line",
]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)} - {"on_phase"}
_PARAMS_FIELDS = {f.name for f in dataclasses.fields(RandomizedParams)}

# Stream-reader line limit.  asyncio's 64 KiB default caps requests at a
# few thousand edges; a million-edge graph payload is ~14 MB of JSON, so
# both the server and the async client raise the limit to this bound
# (it is also the hard cap on accepted request size — one more layer of
# admission control).
MAX_LINE_BYTES = 64 * 1024 * 1024


def encode_line(message: dict[str, Any]) -> bytes:
    """One NDJSON frame: compact JSON plus the newline, UTF-8."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


_MAX_NODE = 2**31  # ids must pack into (u << 32) | v edge keys and 'i' CSR buffers


class ParsedGraphPayload:
    """A request's graph half, normalised but *not yet constructed*.

    Carries everything the cache probe needs (``n`` plus the packed edge
    keys that :func:`repro.service.fingerprint.edge_keys_fingerprint`
    hashes) and a :meth:`build` that performs the full checked
    :class:`Graph` construction — which the server only invokes on a
    cache miss, keeping hits free of construction and validation cost.
    Endpoints are kept as two flat ``array`` columns; Python-level
    per-edge work on the hit path is the single packed-key comprehension.
    """

    __slots__ = ("n", "_us", "_vs", "edge_keys", "node_ids")

    def __init__(self, n: int, us: array, vs: array, node_ids: list[int] | None):
        self.n = n
        self._us = us
        self._vs = vs
        self.node_ids = node_ids
        self.edge_keys = [
            (u << 32) | v if u < v else (v << 32) | u for u, v in zip(us, vs)
        ]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._us, self._vs))

    def build(self) -> Graph:
        """The checked construction (raises ``GraphError`` on self-loops,
        duplicate edges, out-of-range endpoints)."""
        return Graph(self.n, self.pairs)


def _flat_int_pairs(edges_raw: Any, what: str) -> array:
    """Shape-check a JSON list of ``[u, v]`` pairs into one flat int64
    column (the shared core of the ``solve`` graph payload and the
    ``update`` verb's deltas).  Raises :class:`ServiceProtocolError` on
    anything that is not a list of integer pairs."""
    if not isinstance(edges_raw, list):
        raise ServiceProtocolError(f"{what} must be a list of [u, v] pairs")
    try:
        # Per-pair arity first (C-speed via map): a total-length check
        # alone would let [[0,1,2],[3]] re-pair silently into edges the
        # client never sent.  Then array('q') rejects non-int items.
        if edges_raw and set(map(len, edges_raw)) != {2}:
            raise ServiceProtocolError(f"{what} must contain [u, v] pairs")
        return array("q", (x for pair in edges_raw for x in pair))
    except (TypeError, OverflowError):
        raise ServiceProtocolError(
            f"{what} must contain [u, v] integer pairs"
        ) from None


def parse_edge_pairs(edges_raw: Any, what: str) -> list[tuple[int, int]]:
    """Normalise an ``update`` delta: :func:`_flat_int_pairs` plus the
    packed-id range check (delta endpoints name parent nodes, which are
    always ``0 <= id < 2**31`` — see ``_MAX_NODE``)."""
    flat = _flat_int_pairs(edges_raw, what)
    if len(flat) and not (0 <= min(flat) and max(flat) < _MAX_NODE):
        raise ServiceProtocolError(
            f"{what} endpoints must lie in 0..{_MAX_NODE - 1}"
        )
    return list(zip(flat[0::2], flat[1::2]))


def parse_graph_payload(payload: Any) -> ParsedGraphPayload:
    """Normalise a request's ``graph`` object without building the graph.

    With ``n`` present the ids must be ``0..n-1``; without it, arbitrary
    integer ids are compacted ascending (``node_ids`` records the
    mapping when it isn't the identity).  Malformed payloads raise
    :class:`ServiceProtocolError`; *structural* problems (self-loops,
    duplicate edges) are deliberately left to :meth:`ParsedGraphPayload.
    build` — their edge keys can never match a valid cached instance.
    """
    if not isinstance(payload, dict):
        raise ServiceProtocolError("graph must be an object with 'edges'")
    flat = _flat_int_pairs(payload.get("edges"), "graph.edges")
    if "n" in payload:
        n = payload["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ServiceProtocolError(f"graph.n must be a non-negative int, got {n!r}")
        if n > _MAX_NODE:
            raise ServiceProtocolError(f"graph.n must be <= {_MAX_NODE}")
        if len(flat) and not (0 <= min(flat) and max(flat) < n):
            raise ServiceProtocolError(
                f"edge endpoints must lie in 0..{n - 1} when graph.n is given"
            )
        return ParsedGraphPayload(n, flat[0::2], flat[1::2], None)
    ids = sorted(set(flat))
    if len(ids) > _MAX_NODE:
        raise ServiceProtocolError(f"too many distinct node ids (> {_MAX_NODE})")
    index = {node: i for i, node in enumerate(ids)}
    us = array("q", (index[u] for u in flat[0::2]))
    vs = array("q", (index[v] for v in flat[1::2]))
    identity = ids == list(range(len(ids)))
    return ParsedGraphPayload(len(ids), us, vs, None if identity else list(ids))


def graph_from_payload(payload: Any) -> tuple[Graph, list[int] | None]:
    """Eager parse: :func:`parse_graph_payload` + checked construction.

    ``node_ids`` is None when the payload ids were already ``0..n-1``
    (no relabeling happened); otherwise ``node_ids[i]`` is the payload id
    of internal node ``i``.  Malformed payloads raise
    :class:`ServiceProtocolError`; structural problems (self-loops,
    duplicate edges) surface as :class:`repro.errors.GraphError` from the
    checked :class:`Graph` constructor.
    """
    parsed = parse_graph_payload(payload)
    return parsed.build(), parsed.node_ids


def config_from_payload(payload: Any) -> SolverConfig:
    """Parse a request's ``config`` object (missing/None = defaults)."""
    if payload is None:
        return SolverConfig()
    if not isinstance(payload, dict):
        raise ServiceProtocolError("config must be an object")
    unknown = set(payload) - _CONFIG_FIELDS
    if unknown:
        raise ServiceProtocolError(
            f"unknown config fields {sorted(unknown)}; allowed: "
            f"{sorted(_CONFIG_FIELDS)}"
        )
    fields = dict(payload)
    params = fields.get("params")
    if params is not None:
        if not isinstance(params, dict) or set(params) - _PARAMS_FIELDS:
            raise ServiceProtocolError(
                f"config.params must be an object with fields from "
                f"{sorted(_PARAMS_FIELDS)}"
            )
        fields["params"] = RandomizedParams(**params)
    try:
        return SolverConfig(**fields)
    except TypeError as exc:
        raise ServiceProtocolError(f"bad config: {exc}") from None


log = logging.getLogger(__name__)


def _error_reply(request_id: Any, kind: str, exc: BaseException) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "type": kind,
            "name": type(exc).__name__,
            "message": str(exc),
        },
    }


class NdjsonEndpoint:
    """Shared scaffolding for NDJSON-over-TCP endpoints.

    Owns the asyncio listener, the per-connection read loop, the
    per-line request tasks (one slow request never blocks its
    connection), the write lock, the off-loop encoding of oversized
    replies — and the two shutdown flavours: :meth:`close` (immediate,
    for tests and in-process harnesses whose traffic has finished) and
    :meth:`shutdown` (graceful: stop accepting, drain in-flight request
    tasks up to a bounded deadline, cancel stragglers, then close
    connections — what ``repro serve`` runs on SIGTERM/SIGINT).

    Subclasses implement :meth:`_reply_for` (bytes in, reply dict out),
    :meth:`_count_error` (the endpoint's ``errors_total`` counter) and
    the optional :meth:`_on_start` / :meth:`_on_close` lifecycle hooks.
    An exception that escapes :meth:`_reply_for` is still answered, as
    an ``engine`` error, and counted once.  :class:`ColoringServer` is
    the solving endpoint; the shard router
    (:mod:`repro.service.sharding.router`) is a forwarding one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8512):
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._request_tasks: set[asyncio.Task] = set()

    # lifecycle hooks -----------------------------------------------------

    def _on_start(self) -> None:
        """Called before binding (warm pools here)."""

    async def _on_close(self) -> None:
        """Called after the listener and connections are gone."""

    async def _reply_for(self, line: bytes) -> dict[str, Any]:
        raise NotImplementedError

    def _count_error(self, kind: str) -> None:
        raise NotImplementedError

    # lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Immediate close: stop the listener, then run :meth:`_on_close`.

        In-flight request tasks are left to finish on their own (callers
        of this flavour have already drained their traffic); use
        :meth:`shutdown` for the bounded-drain variant.
        """
        if self._server is not None:
            self._server.close()
            await self._wait_listener_closed()
            self._server = None
        await self._on_close()

    async def shutdown(self, drain_s: float = 5.0) -> None:
        """Graceful close: drain in-flight requests, bounded by ``drain_s``.

        New connections are refused immediately; requests already being
        served get up to ``drain_s`` seconds to complete and write their
        replies, then are cancelled.  Either way every connection is
        closed and :meth:`_on_close` runs, so the call is also the
        idempotent teardown path.
        """
        if self._server is not None:
            self._server.close()
        pending = {t for t in self._request_tasks if not t.done()}
        if pending:
            done, late = await asyncio.wait(pending, timeout=max(0.0, drain_s))
            for task in late:
                task.cancel()
            if late:
                await asyncio.gather(*late, return_exceptions=True)
        for writer in list(self._conn_writers):
            writer.close()
        if self._server is not None:
            await self._wait_listener_closed()
            self._server = None
        await self._on_close()

    async def _wait_listener_closed(self) -> None:
        # Python 3.12's wait_closed also waits on connection handlers;
        # ours exit when their writers close, but a misbehaving peer must
        # not be able to wedge shutdown — bound the wait.
        assert self._server is not None
        try:
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        request_tasks: set[asyncio.Task] = set()
        self._conn_writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # line past MAX_LINE_BYTES: drop the connection
        ):
            pass
        finally:
            self._conn_writers.discard(writer)
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # Results with color vectors past this length have their reply JSON
    # encoded off the event loop: serialising a multi-megabyte reply
    # inline would stall every connection (the same head-of-line blocking
    # the lazy request-side build avoids).  Small replies stay inline —
    # an executor hop costs more than encoding them.
    _INLINE_ENCODE_MAX_COLORS = 100_000

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            reply = await self._reply_for(line)
        except Exception as exc:
            # Any failure still gets its reply: otherwise the client
            # waits out its own timeout.
            log.exception("unhandled %s answering a request", type(exc).__name__)
            self._count_error("engine")
            reply = _error_reply(_request_id(line), "engine", exc)
        result = reply.get("result")
        if result and len(result.get("colors", ())) > self._INLINE_ENCODE_MAX_COLORS:
            payload = await asyncio.get_running_loop().run_in_executor(
                None, encode_line, reply
            )
        else:
            payload = encode_line(reply)
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _request_id(line: bytes) -> Any:
    """The ``id`` of a request line, or ``None`` when it has none."""
    try:
        request = json.loads(line)
    except ValueError:
        return None
    return request.get("id") if isinstance(request, dict) else None


class ColoringServer(NdjsonEndpoint):
    """The asyncio TCP front end over one :class:`BatchingGateway`.

    Usage::

        server = ColoringServer(port=0, max_queue=128)
        await server.start()          # binds; server.port is the real port
        await server.serve_forever()  # or keep doing other loop work

    ``port=0`` binds an ephemeral port (tests and the in-process load
    harness use this).  All gateway knobs pass through as kwargs.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8512,
        gateway: BatchingGateway | None = None,
        tracer: Tracer | None = None,
        **gateway_kwargs: Any,
    ):
        super().__init__(host, port)
        if gateway is None:
            gateway = BatchingGateway(tracer=tracer, **gateway_kwargs)
        self.gateway = gateway
        # One tracer per tier: the server's request spans and the
        # gateway's child spans share it (a remote router context on the
        # request forces sampling on for the whole tier).
        self.tracer = tracer if tracer is not None else gateway.tracer

    def _on_start(self) -> None:
        self.gateway.warm()

    async def _on_close(self) -> None:
        await self.gateway.close()

    def _count_error(self, kind: str) -> None:
        self.gateway.metrics.record_error(kind)

    def _reply_for_metrics(self, request_id: Any, request: dict[str, Any]) -> dict[str, Any]:
        """The ``metrics`` op: the registry snapshot (JSON or Prometheus).

        ``{"op": "metrics"}`` returns ``{"metrics": {…registry
        snapshot…}}``; ``{"op": "metrics", "format": "prometheus"}``
        returns ``{"metrics_text": "…exposition…"}``.  The router
        aggregates these per shard into one fleet view.
        """
        fmt = request.get("format", "json")
        snapshot = self.gateway.metrics.registry.as_dict()
        if fmt == "prometheus":
            return {
                "id": request_id, "ok": True,
                "metrics_text": render_prometheus(snapshot),
            }
        if fmt != "json":
            raise ServiceProtocolError(
                f"unknown metrics format {fmt!r}; expected 'json' or "
                "'prometheus'"
            )
        return {"id": request_id, "ok": True, "metrics": snapshot}

    @staticmethod
    def _failed(
        request_id: Any, span: Any, exc: Exception, op: str
    ) -> dict[str, Any]:
        """The error reply for a request the gateway refused or failed,
        typed by the same :func:`~repro.service.metrics.error_kind` that
        labelled its ``repro_errors_total`` count (the gateway counts
        every failure it raises, of any type, so this does not)."""
        kind = error_kind(exc, op)
        span.set_attr("error", kind).end()
        return _error_reply(request_id, kind, exc)

    async def _reply_for(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceProtocolError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "solve")
            if op == "ping":
                return {"id": request_id, "ok": True, "pong": True}
            if op == "stats":
                return {"id": request_id, "ok": True, "stats": self.gateway.stats()}
            if op == "metrics":
                return self._reply_for_metrics(request_id, request)
            if op == "update":
                return await self._reply_for_update(request_id, request)
            if op != "solve":
                raise ServiceProtocolError(f"unknown op {op!r}")
            parsed = parse_graph_payload(request.get("graph"))
            config = config_from_payload(request.get("config"))
        except (json.JSONDecodeError, ReproError) as exc:
            self.gateway.metrics.record_error("protocol")
            return _error_reply(request_id, "protocol", exc)

        # Hash the payload directly (edge_keys_fingerprint) so cache hits
        # never pay graph construction + validation; the checked build
        # runs lazily, off the event loop, only for requests that solve.
        fingerprint = combine_fingerprints(
            edge_keys_fingerprint(parsed.n, parsed.edge_keys),
            config_fingerprint(config.without_observer()),
        )
        cost = request_cost(parsed.n, len(parsed.edge_keys))
        node_ids = parsed.node_ids
        # Root here when untraced upstream; a router's wire context
        # (request["trace"]) continues the fleet-wide trace instead.
        span = self.tracer.start_span(
            "server.request",
            remote_parent=request.get("trace"),
            attrs={"op": "solve", "cost": cost},
        )
        try:
            reply = await self.gateway.submit(
                parsed.build, config, fingerprint=fingerprint, cost=cost,
                parent_span=span,
            )
        except Exception as exc:
            return self._failed(request_id, span, exc, "solve")
        span.set_attr("cached", reply.cached).end()
        body: dict[str, Any] = {
            "id": request_id,
            "ok": True,
            "cached": reply.cached,
            "fingerprint": reply.fingerprint,
            "result": reply.result.as_dict(),
        }
        if node_ids is not None:
            body["node_ids"] = node_ids
        return body

    async def _reply_for_update(
        self, request_id: Any, request: dict[str, Any]
    ) -> dict[str, Any]:
        """The ``update`` op: an edge delta against a served instance.

        Request shape (see docs/SERVICE.md and docs/INCREMENTAL.md)::

            {"id": 9, "op": "update", "parent_digest": "…",
             "edges_added": [[u, v], ...], "edges_removed": [[u, v], ...],
             "config": { … SolverConfig fields for the re-solve fallback … }}

        A ``backend`` field (``"auto"`` / ``"dynamic"`` / ``"immutable"``)
        is accepted for compatibility and ignored — there is one update
        path; any other value is still a protocol error.

        The reply mirrors ``solve`` plus ``parent_digest`` and an
        ``update`` block with the repair statistics; ``fingerprint`` is
        the child digest — pass it as the next ``parent_digest`` to
        chain further updates.  A malformed request raises
        :class:`ServiceProtocolError`, which :meth:`_reply_for` counts
        and answers like any other ``protocol`` error.
        """
        parent_digest = request.get("parent_digest")
        if not isinstance(parent_digest, str) or not parent_digest:
            raise ServiceProtocolError("update needs a string parent_digest")
        # Legacy field: the three old values are accepted and ignored.
        backend = request.get("backend", "auto")
        if backend not in ("auto", "dynamic", "immutable"):
            raise ServiceProtocolError(
                f"unknown update backend {backend!r}; expected "
                "'auto', 'dynamic' or 'immutable'"
            )
        added = parse_edge_pairs(request.get("edges_added", []), "edges_added")
        removed = parse_edge_pairs(request.get("edges_removed", []), "edges_removed")
        config = config_from_payload(request.get("config"))
        span = self.tracer.start_span(
            "server.request",
            remote_parent=request.get("trace"),
            attrs={"op": "update"},
        )
        try:
            reply = await self.gateway.submit_update(
                parent_digest, added, removed, config, parent_span=span,
            )
        except Exception as exc:
            return self._failed(request_id, span, exc, "update")
        span.set_attr("cached", reply.cached).end()
        return {
            "id": request_id,
            "ok": True,
            "cached": reply.cached,
            "fingerprint": reply.fingerprint,
            "parent_digest": reply.parent_digest,
            "update": reply.update,
            "result": reply.result.as_dict(),
        }
