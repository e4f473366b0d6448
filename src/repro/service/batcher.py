"""The asyncio request gateway: admission, coalescing, micro-batching.

Request lifecycle (``await gateway.submit(graph, config)``):

1. **Fingerprint** the request (:mod:`repro.service.fingerprint`).
2. **Cache probe** — a hit returns the frozen cached result immediately
   (bit-identical to a fresh solve; the cache stores pure-function
   outputs).
3. **Coalesce** — if the same fingerprint is already being solved, the
   request attaches to the in-flight future instead of solving twice.
4. **Admission** — if the number of outstanding (admitted, uncompleted)
   requests has reached ``max_queue`` — or, with ``max_cost`` set, if
   their summed :func:`request_cost` (``n + m``) would exceed it — the
   request is rejected *now* with
   :class:`repro.errors.ServiceOverloadedError`.  Load shedding is
   explicit; nothing queues unboundedly and nothing hangs.
5. **Micro-batch** — a dispatcher task drains the queue into batches of
   up to ``max_batch`` requests, waiting at most ``max_wait_s`` for
   stragglers once the first request of a batch arrives, and runs each
   batch through :func:`repro.api.solve_many` on the gateway's warmed
   :class:`repro.api.SolverPool` (in a worker thread, so the event loop
   keeps accepting requests while engines run).

Failure isolation: a request whose engine raises (e.g. a clique sent to
an algorithm that needs a *nice* graph) fails only its own future — the
batch it rode in falls back to per-request solves, and the pool and
dispatcher keep serving (see ``tests/test_service.py``).

Graph streams: :meth:`BatchingGateway.submit_update` serves the
``update`` verb — an edge delta against a previously served instance,
addressed by the digest its reply carried.  The first update against a
parent builds a chain-head :class:`repro.core.incremental.
IncrementalColoring` engine from the stored graph + cached coloring;
every further update **moves** that engine along the version chain
(popped at the parent digest, delta applied in place via
:func:`repro.api.apply_incremental`, re-stored at the child digest), so
a long-lived stream pays the in-place price per op and never
re-materializes a child graph.  Child results are cached under
version-chained digests.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

from repro.api.config import SolverConfig
from repro.api.result import ColoringResult
from repro.api.solver import SolverPool, apply_incremental, solve_many
from repro.errors import ServiceOverloadedError, StaleParentError
from repro.graphs.graph import Graph
from repro.service.fingerprint import (
    config_fingerprint,
    request_fingerprint,
    update_fingerprint,
)
from repro.service.metrics import ServiceMetrics, error_kind
from repro.service.storage import (
    StorageBundle,
    StorageConfig,
    replay_chains,
    update_record,
)
from repro.obs.trace import NOOP_SPAN, NULL_TRACER, Tracer

__all__ = ["BatchingGateway", "GatewayReply", "UpdateReply", "request_cost"]


@dataclass(frozen=True)
class GatewayReply:
    """What one admitted request resolves to."""

    result: ColoringResult
    cached: bool
    fingerprint: str


@dataclass(frozen=True)
class UpdateReply:
    """What one ``update`` request resolves to.

    ``fingerprint`` is the *child* digest (usable as the next
    ``parent_digest`` — the cache chains versions); ``update`` is the
    repair-statistics dict of the op that produced the child (also
    embedded in ``result.stats["incremental"]``, which is where it comes
    from when the reply is served from the cache).
    """

    result: ColoringResult
    cached: bool
    fingerprint: str
    parent_digest: str
    update: dict


def request_cost(n: int, m: int) -> int:
    """The admission cost of one request: its instance volume ``n + m``.

    Every stage a request pays for downstream — graph construction,
    solving, validation, serialisation — is Ω(n + m), so queued work is
    metered in these units rather than request counts (a queue of
    million-node instances and a queue of toy graphs are not the same
    backlog).
    """
    return n + m


class _Pending:
    __slots__ = (
        "fingerprint", "graph", "config", "config_key", "future", "cost",
        "span",
    )

    def __init__(
        self, fingerprint, graph, config, config_key, future, cost,
        span=NOOP_SPAN,
    ):
        self.fingerprint = fingerprint
        self.graph = graph
        self.config = config
        self.config_key = config_key
        self.future = future
        self.cost = cost
        self.span = span


class BatchingGateway:
    """Coalescing micro-batch dispatcher over a warmed solver pool.

    Parameters
    ----------
    workers:
        Process-pool width for :func:`repro.api.solve_many`; ``1`` keeps
        solves in the dispatcher's worker thread (no process hop), which
        is the right default on single-CPU containers.
    storage:
        The gateway's stores, as a declarative
        :class:`~repro.service.storage.StorageConfig` (built here, with
        the ``repro_store_*`` instruments wired to this gateway's metrics
        registry, and closed by :meth:`close`) or a prebuilt
        :class:`~repro.service.storage.StorageBundle` (lifecycle stays
        with the caller).  Omitted = the default in-memory config —
        bit-identical to the pre-storage-API gateway.
    metrics:
        Injectable for tests and for sharing with the TCP server's stats
        endpoint; a fresh instance is created when omitted.
    max_batch:
        Micro-batch size cap.
    max_wait_s:
        How long a batch holds the door open for stragglers after its
        first request arrives.  Zero disables coalescing-by-time (each
        drain takes whatever is queued right then).
    max_queue:
        Bound on outstanding admitted requests; admission beyond it
        raises :class:`ServiceOverloadedError`.
    max_followers:
        Bound on concurrently *coalesced* waiters (duplicate-fingerprint
        requests attached to an in-flight solve).  Followers cost no
        solve work but each holds its request payload, so they are
        bounded too; default ``8 * max_queue``.
    max_cost:
        Cost-aware admission bound: the summed :func:`request_cost`
        (``n + m``) of outstanding requests may not exceed this.  An
        oversize request is still admitted when the gateway is otherwise
        idle (otherwise it could never be served at all), so the bound
        sheds *backlog*, proportionally to the work actually queued.
        ``None`` (the default) disables cost metering and admission is
        by request count alone.
    tracer:
        The :class:`repro.obs.Tracer` child spans are recorded on
        (``gateway.cache_probe`` / ``gateway.coalesce_wait`` /
        ``gateway.admission`` / ``gateway.batch_execute`` plus the
        synthesized per-solver-phase and per-repair-rung spans).  Spans
        are emitted only under a sampled ``parent_span`` — an untraced
        request costs nothing here.  Defaults to the disabled
        :data:`repro.obs.NULL_TRACER`.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        metrics: ServiceMetrics | None = None,
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        max_queue: int = 64,
        max_followers: int | None = None,
        max_cost: int | None = None,
        storage: "StorageConfig | StorageBundle | None" = None,
        tracer: Tracer | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_followers is not None and max_followers < 1:
            raise ValueError(f"max_followers must be >= 1, got {max_followers}")
        if max_cost is not None and max_cost < 1:
            raise ValueError(f"max_cost must be >= 1, got {max_cost}")
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if storage is None:
            storage = StorageConfig()
        if isinstance(storage, StorageConfig):
            # The gateway built these stores, so it owns their lifecycle
            # (close() closes the durable journals); injected bundles
            # stay the caller's to close.
            storage = storage.build(registry=self.metrics.registry)
            self._owns_storage = True
        else:
            self._owns_storage = False
        self.storage = storage
        self.cache = storage.cache
        self.graph_store = storage.graph_store
        self.last_replay: dict | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.max_batch = max_batch
        self.max_wait_s = max(0.0, max_wait_s)
        self.max_queue = max_queue
        self.max_followers = (
            max_followers if max_followers is not None else 8 * max_queue
        )
        self.max_cost = max_cost
        self.workers = workers
        self._pool = SolverPool(workers) if workers > 1 else None
        self._queue: deque[_Pending] = deque()
        self._inflight: dict[str, asyncio.Future] = {}
        self._outstanding = 0
        self._outstanding_cost = 0
        self._followers = 0
        self.coalesced = 0
        self._wake = asyncio.Event()
        self._running = True
        self._dispatcher: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> "BatchingGateway":
        """Spawn and warm the process pool outside any timed region, and
        replay durable state (chain heads from the WAL) when there is
        any — the warm-restart path."""
        if self._pool is not None:
            self._pool.warm()
        self.replay()
        return self

    def replay(self) -> dict | None:
        """Rebuild chain-head engines from the update WAL (idempotent).

        Returns the replay report, or None on a memory-only gateway.
        Recorded under ``storage.replay`` in :meth:`stats` and emitted as
        a ``store.replay`` root span plus ``repro_store_*`` replay
        metrics.
        """
        if self.storage.durable is None:
            return None
        with self.tracer.start_span("store.replay") as span:
            report = replay_chains(
                self.storage.wal,
                self.storage.durable,
                self.graph_store,
                cache=self.cache,
                meters=self.storage.meters,
            )
            if span:
                span.set_attr("chains_replayed", report["chains_replayed"])
                span.set_attr("deltas_replayed", report["deltas_replayed"])
                span.set_attr("results_indexed", report["results_indexed"])
        self.last_replay = report
        return report

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def close(self) -> None:
        """Drain the queue, stop the dispatcher, shut the pool down."""
        self._running = False
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._pool is not None:
            self._pool.close()
        if self._owns_storage:
            self.storage.close()

    async def __aenter__(self) -> "BatchingGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- request path ------------------------------------------------------

    async def submit(
        self,
        graph: "Graph | Callable[[], Graph]",
        config: SolverConfig | None = None,
        *,
        fingerprint: str | None = None,
        cost: int | None = None,
        parent_span=None,
    ) -> GatewayReply:
        """Resolve one request through cache / coalescing / batched solve.

        ``graph`` may be a :class:`Graph` or a zero-arg callable building
        one; a callable requires an explicit ``fingerprint`` and is only
        invoked — off the event loop — when the request actually needs a
        solve.  The TCP server uses this to answer cache hits without
        paying graph construction and validation
        (:func:`repro.service.fingerprint.edge_keys_fingerprint` hashes
        the raw payload).  ``cost`` is the request's admission weight
        (:func:`request_cost`); it is computed from the graph when
        omitted, but lazy factories should pass it explicitly (the
        payload's ``n`` and edge count are known before construction).

        Raises :class:`ServiceOverloadedError` immediately when the
        outstanding-request bound (or, with ``max_cost`` set, the
        outstanding-cost bound) is hit, and re-raises the engine's own
        error (or the factory's construction error) if the solve fails.

        ``parent_span`` (a sampled :class:`repro.obs.Span`) attaches the
        gateway's child spans to the server's request span; with the
        default ``None`` the request is untraced here.
        """
        config = (config or SolverConfig()).without_observer()
        started = time.perf_counter()
        parent_span = parent_span if parent_span is not None else NOOP_SPAN
        if cost is None:
            cost = (
                request_cost(graph.n, graph.num_edges)
                if isinstance(graph, Graph)
                else 0
            )
        if fingerprint is None:
            if callable(graph):
                raise ValueError("a lazy graph factory needs an explicit fingerprint")
            if graph.num_edges > 100_000:
                # the canonical hash is an O(m) pure-Python walk — keep
                # million-edge in-process submissions off the event loop
                fingerprint = await asyncio.get_running_loop().run_in_executor(
                    None, request_fingerprint, graph, config
                )
            else:
                fingerprint = request_fingerprint(graph, config)
        probe = self.tracer.start_span("gateway.cache_probe", parent=parent_span)
        hit = self.cache.get(fingerprint)
        if probe:
            probe.set_attr("hit", hit is not None).end()
        if hit is not None:
            self.metrics.record_request(time.perf_counter() - started, cached=True)
            return GatewayReply(result=hit, cached=True, fingerprint=fingerprint)

        shared = self._inflight.get(fingerprint)
        if shared is not None:
            if self._followers >= self.max_followers:
                self.metrics.record_rejected()
                raise ServiceOverloadedError(
                    f"too many requests waiting on in-flight duplicates "
                    f"({self._followers}/{self.max_followers}); retry with backoff"
                )
            self.coalesced += 1
            self._followers += 1
            wait_span = self.tracer.start_span(
                "gateway.coalesce_wait", parent=parent_span
            )
            try:
                with wait_span:
                    result = await asyncio.shield(shared)
            except asyncio.CancelledError:
                raise  # this follower itself was cancelled, not failed
            except BaseException as exc:
                # every follower saw the failure
                self.metrics.record_failed(error_kind(exc))
                raise
            finally:
                self._followers -= 1
            self.metrics.record_request(
                time.perf_counter() - started, cached=False, coalesced=True
            )
            return GatewayReply(result=result, cached=False, fingerprint=fingerprint)

        with self.tracer.start_span(
            "gateway.admission", parent=parent_span,
        ) as admission:
            if admission:
                admission.set_attr("outstanding", self._outstanding)
                admission.set_attr("cost", cost)
            self._admit(cost)

        # One future carries the request from here on: registered before
        # any await so concurrent duplicates coalesce onto it, reserved
        # against the queue bound before construction begins.
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[fingerprint] = future
        self._outstanding += 1
        self._outstanding_cost += cost
        self.metrics.set_queue_depth(self._outstanding)

        if callable(graph):
            # Build + validate off the event loop (only misses pay this).
            # BaseException matters: a CancelledError here (caller timeout,
            # server shutdown) must release the queue slot and resolve the
            # in-flight future, or followers hang and capacity leaks.
            try:
                graph = await asyncio.get_running_loop().run_in_executor(None, graph)
            except BaseException as exc:
                self._outstanding -= 1
                self._outstanding_cost -= cost
                self._inflight.pop(fingerprint, None)
                self.metrics.record_failed(error_kind(exc))
                self.metrics.set_queue_depth(self._outstanding)
                if not future.done():
                    # followers get a retryable error, not the leader's
                    # CancelledError (they were not cancelled themselves)
                    future.set_exception(
                        ServiceOverloadedError(
                            "in-flight request was cancelled; retry"
                        )
                        if isinstance(exc, asyncio.CancelledError)
                        else exc
                    )
                    future.exception()  # coalesced followers still see it;
                    # retrieving here silences the never-retrieved warning
                raise

        pending = _Pending(
            fingerprint, graph, config, config_fingerprint(config), future, cost,
            span=parent_span,
        )
        self._queue.append(pending)
        self.metrics.set_queue_depth(self._outstanding)
        self._ensure_dispatcher()
        self._wake.set()
        try:
            result = await asyncio.shield(future)
        finally:
            if future.done() and self._inflight.get(fingerprint) is future:
                del self._inflight[fingerprint]
        self.metrics.record_request(time.perf_counter() - started, cached=False)
        return GatewayReply(result=result, cached=False, fingerprint=fingerprint)

    def _admit(self, cost: int) -> None:
        """Admission control: request-count bound plus (optionally) the
        cost bound.  Raises :class:`ServiceOverloadedError` on rejection."""
        if self._outstanding >= self.max_queue:
            self.metrics.record_rejected()
            raise ServiceOverloadedError(
                f"request queue full ({self._outstanding}/{self.max_queue} "
                "outstanding); retry with backoff"
            )
        if (
            self.max_cost is not None
            and self._outstanding > 0
            and self._outstanding_cost + cost > self.max_cost
        ):
            self.metrics.record_rejected()
            raise ServiceOverloadedError(
                f"queued work too large (outstanding cost "
                f"{self._outstanding_cost} + {cost} > {self.max_cost}); "
                "retry with backoff"
            )

    # -- update path -------------------------------------------------------

    async def submit_update(
        self,
        parent_digest: str,
        edges_added: "list[tuple[int, int]]" = (),
        edges_removed: "list[tuple[int, int]]" = (),
        config: SolverConfig | None = None,
        *,
        parent_span=None,
    ) -> UpdateReply:
        """Resolve one edge-stream update against a cached parent.

        The parent is addressed by the digest a previous ``solve`` (or
        ``update``) reply carried.  If the graph store holds a live
        chain-head engine there, the delta applies **in place** (the
        engine moves to the child digest); otherwise a fresh engine is
        seeded from the stored parent graph + cached coloring — so a
        known parent pays *no* graph upload, construction, or fresh
        solve, and a sustained chain additionally skips per-op child
        materialization (:func:`repro.api.apply_incremental`).  The
        child result is cached under a version-chained digest
        (:func:`repro.service.fingerprint.update_fingerprint`) that is
        itself a valid ``parent_digest``.

        Raises :class:`StaleParentError` when the parent is unknown
        (evicted, never solved here, or a chain head that already
        advanced past this digest) — the caller should fall back to a
        full ``solve`` — and :class:`ServiceOverloadedError` under the
        same admission bounds as ``submit``.  Rejected deltas re-raise
        the engine's typed errors with the gateway state unchanged (the
        chain head, exact by the engine's rollback contract, goes back
        under the parent digest).
        """
        config = (config or SolverConfig()).without_observer()
        started = time.perf_counter()
        parent_span = parent_span if parent_span is not None else NOOP_SPAN
        edges_added = list(edges_added)
        edges_removed = list(edges_removed)
        child_digest = update_fingerprint(
            parent_digest, edges_added, edges_removed, config_fingerprint(config)
        )
        probe = self.tracer.start_span("gateway.cache_probe", parent=parent_span)
        hit = self.cache.get(child_digest)
        if probe:
            probe.set_attr("hit", hit is not None).end()
        if hit is not None:
            self.metrics.record_request(time.perf_counter() - started, cached=True)
            return UpdateReply(
                result=hit,
                cached=True,
                fingerprint=child_digest,
                parent_digest=parent_digest,
                update=dict(hit.stats.get("incremental", {})),
            )

        shared = self._inflight.get(child_digest)
        if shared is not None:
            if self._followers >= self.max_followers:
                self.metrics.record_rejected()
                raise ServiceOverloadedError(
                    f"too many requests waiting on in-flight duplicates "
                    f"({self._followers}/{self.max_followers}); retry with backoff"
                )
            self.coalesced += 1
            self._followers += 1
            wait_span = self.tracer.start_span(
                "gateway.coalesce_wait", parent=parent_span
            )
            try:
                with wait_span:
                    result = await asyncio.shield(shared)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self.metrics.record_failed(error_kind(exc))
                raise
            finally:
                self._followers -= 1
            self.metrics.record_request(
                time.perf_counter() - started, cached=False, coalesced=True
            )
            return UpdateReply(
                result=result,
                cached=False,
                fingerprint=child_digest,
                parent_digest=parent_digest,
                update=dict(result.stats.get("incremental", {})),
            )

        # Take ownership of the chain head if one lives at the parent
        # digest; otherwise fall back to seeding a fresh engine from the
        # stored graph + cached result.  Ownership (pop, not get) is what
        # makes the in-place mutation safe: a concurrent update on the
        # same parent loses the race and sees a stale parent — retriable.
        engine = self.graph_store.pop_engine(parent_digest)
        parent_graph = parent_result = None
        if engine is None:
            parent_graph = self.graph_store.get(parent_digest)
            parent_result = self.cache.get(parent_digest)
            if parent_graph is None or parent_result is None:
                self.metrics.record_failed("stale_parent")
                raise StaleParentError(
                    f"unknown parent {parent_digest[:16]}…: not in the graph "
                    "store / result cache (evicted, never solved here, or a "
                    "chain that moved on); fall back to a full solve of the "
                    "child graph"
                )
            cost = request_cost(parent_graph.n, parent_graph.num_edges)
        else:
            cost = request_cost(engine.n, engine.num_edges)
        try:
            with self.tracer.start_span(
                "gateway.admission", parent=parent_span,
            ) as admission:
                if admission:
                    admission.set_attr("outstanding", self._outstanding)
                    admission.set_attr("cost", cost)
                self._admit(cost)
        except BaseException:
            if engine is not None:
                self.graph_store.put_engine(parent_digest, engine)
            raise

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[child_digest] = future
        self._outstanding += 1
        self._outstanding_cost += cost
        self.metrics.set_queue_depth(self._outstanding)

        def _apply() -> "Any":
            nonlocal engine
            if engine is None:
                from repro.core.incremental import IncrementalColoring

                engine = IncrementalColoring.from_result(
                    parent_graph, parent_result, config=config
                )
            return apply_incremental(
                engine, edges_added, edges_removed, config,
                materialize_graph=False,
            )

        apply_span = self.tracer.start_span(
            "gateway.update_apply", parent=parent_span
        )
        try:
            updated = await asyncio.get_running_loop().run_in_executor(
                None, _apply
            )
            if apply_span:
                apply_span.set_attr(
                    "full_resolve", bool(updated.update.get("full_resolve"))
                )
                apply_span.end()
                # Repair-rung children synthesized from the engine's own
                # wall breakdown, laid end-to-end under the apply span.
                offset = 0.0
                for rung, wall in updated.update.get("rung_wall_s", {}).items():
                    self.tracer.emit(
                        f"repair.{rung}", apply_span, wall, offset_s=offset
                    )
                    offset += wall
        except BaseException as exc:
            if apply_span:
                apply_span.set_attr("error", type(exc).__name__)
                apply_span.end()
            # Rejected deltas leave the engine state exactly unchanged
            # (the engine's rollback contract), so the chain head goes
            # back where it was and the caller may correct and retry.
            if engine is not None:
                self.graph_store.put_engine(parent_digest, engine)
            self.metrics.record_failed(error_kind(exc))
            if not future.done():
                future.set_exception(
                    ServiceOverloadedError("in-flight update was cancelled; retry")
                    if isinstance(exc, asyncio.CancelledError)
                    else exc
                )
                future.exception()  # silence the never-retrieved warning
            raise
        else:
            if self.storage.wal is not None:
                # Logged after the apply succeeded (facts, not intents):
                # replay reapplies exactly the deltas that once worked.
                self.storage.wal.append(
                    update_record(
                        parent_digest, child_digest, edges_added, edges_removed,
                        config,
                    )
                )
            self.cache.put(child_digest, updated.result)
            self.graph_store.put_engine(child_digest, engine)
            if not future.done():
                future.set_result(updated.result)
            self.metrics.record_request(time.perf_counter() - started, cached=False)
            return UpdateReply(
                result=updated.result,
                cached=False,
                fingerprint=child_digest,
                parent_digest=parent_digest,
                update=updated.update,
            )
        finally:
            self._outstanding -= 1
            self._outstanding_cost -= cost
            if self._inflight.get(child_digest) is future:
                del self._inflight[child_digest]
            self.metrics.set_queue_depth(self._outstanding)

    # -- dispatcher --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not self._queue:
                if not self._running:
                    return
                self._wake.clear()
                await self._wake.wait()
            batch = [self._queue.popleft()]
            deadline = loop.time() + self.max_wait_s
            while len(batch) < self.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - loop.time()
                if remaining <= 0 or not self._running:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            self.metrics.record_batch(len(batch))
            batch_started = time.perf_counter()
            outcomes = await loop.run_in_executor(None, self._solve_batch, batch)
            batch_elapsed = time.perf_counter() - batch_started
            for pending, outcome in outcomes:
                self._outstanding -= 1
                self._outstanding_cost -= pending.cost
                self._inflight.pop(pending.fingerprint, None)
                if isinstance(outcome, BaseException):
                    self.metrics.record_failed(error_kind(outcome))
                    if not pending.future.done():
                        pending.future.set_exception(outcome)
                else:
                    self._emit_solve_spans(pending, outcome, batch_elapsed, len(batch))
                    self.cache.put(pending.fingerprint, outcome)
                    # Retained under the same digest so a later `update`
                    # can use this instance as its repair parent.
                    self.graph_store.put(pending.fingerprint, pending.graph)
                    if not pending.future.done():
                        pending.future.set_result(outcome)
            self.metrics.set_queue_depth(self._outstanding)

    def _solve_batch(self, batch: list[_Pending]) -> list[tuple[_Pending, object]]:
        """Runs in a worker thread: one ``solve_many`` per config group.

        ``solve_many`` takes a single config for the whole batch, so the
        micro-batch is grouped by config fingerprint (in practice service
        traffic is config-uniform and this is one group).  A group whose
        batched solve raises falls back to per-request solves so one bad
        request cannot fail its batchmates.
        """
        groups: dict[str, list[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.config_key, []).append(pending)
        outcomes: list[tuple[_Pending, object]] = []
        for group in groups.values():
            graphs = [p.graph for p in group]
            config = group[0].config
            try:
                results = solve_many(graphs, config, pool=self._pool)
                outcomes.extend(zip(group, results))
            except Exception:
                # executor.map loses the group's completed results when one
                # task raises, so the whole group re-solves one-by-one —
                # still through the pool, so process isolation (and any
                # already-warm workers) is kept.  Rare path: only batches
                # containing a failing request pay it.
                for pending in group:
                    try:
                        result = solve_many(
                            [pending.graph], pending.config, pool=self._pool
                        )[0]
                        outcomes.append((pending, result))
                    except Exception as exc:
                        outcomes.append((pending, exc))
        return outcomes

    def _emit_solve_spans(
        self,
        pending: _Pending,
        result: ColoringResult,
        batch_elapsed: float,
        batch_size: int,
    ) -> None:
        """Synthesize the batch-execute span plus one child per solver
        phase (from the engine's recorded ``wall_s`` breakdown) under a
        sampled request's span.  Untraced requests skip out in one check."""
        if not pending.span:
            return
        exec_span = self.tracer.emit(
            "gateway.batch_execute",
            pending.span,
            batch_elapsed,
            attrs={"batch_size": batch_size, "algorithm": result.algorithm},
        )
        offset = 0.0
        for phase in result.phase_rounds:
            stats = result.phase_stats.get(phase, {})
            wall = stats.get("wall_s")
            if not isinstance(wall, (int, float)):
                continue
            self.tracer.emit(
                f"solver.{phase}", exec_span, wall, offset_s=offset,
                attrs={"rounds": result.phase_rounds.get(phase)},
            )
            offset += wall
        # nested ledger phases ("a/b") ride along, anchored after the
        # top-level phases rather than interleaved — their parent entry
        # already contains their time
        for phase, stats in result.phase_stats.items():
            if phase in result.phase_rounds or "/" not in phase:
                continue
            wall = stats.get("wall_s")
            if isinstance(wall, (int, float)):
                self.tracer.emit(f"solver.{phase}", exec_span, wall)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Gateway-level counters merged with cache and metrics snapshots."""
        cache_stats = self.cache.stats()
        if hasattr(cache_stats, "as_dict"):
            cache_stats = cache_stats.as_dict()
        out = {
            "workers": self.workers,
            "max_batch": self.max_batch,
            "max_wait_ms": round(1000 * self.max_wait_s, 3),
            "max_queue": self.max_queue,
            "max_followers": self.max_followers,
            "max_cost": self.max_cost,
            "outstanding": self._outstanding,
            "outstanding_cost": self._outstanding_cost,
            "followers": self._followers,
            "coalesced": self.coalesced,
            "cache": cache_stats,
            "graph_store": self.graph_store.stats(),
            "metrics": self.metrics.snapshot(),
        }
        if self.storage.durable is not None:
            storage = self.storage.stats()
            if self.last_replay is not None:
                storage["replay"] = self.last_replay
            out["storage"] = storage
        return out
