"""The asyncio request gateway: one request lifecycle for both verbs.

``solve`` (:meth:`BatchingGateway.submit`) and ``update``
(:meth:`BatchingGateway.submit_update`) run through the same steps:

1. **Cache probe** — a hit returns the frozen cached result at once
   (bit-identical to fresh work; the cache stores pure-function
   outputs).
2. **Coalesce** — if the same digest is already in flight, the request
   waits on that future instead of doing the work twice (at most
   ``max_followers`` such waiters).
3. **Admission** — if the number of outstanding (admitted, unsettled)
   requests has reached ``max_queue``, or if their summed
   :func:`request_cost` (``n + m``) would exceed ``max_cost``, the
   request is rejected *now* with
   :class:`repro.errors.ServiceOverloadedError`.  Load shedding is
   explicit; nothing queues unboundedly and nothing hangs.  A request
   that alone costs more than ``max_cost`` is refused with
   :class:`repro.errors.ServiceProtocolError`, which no retry cures.
4. **Reservation** — the in-flight future is registered and the slot
   and cost are reserved before any await.
5. **Work** in a worker thread, so the event loop keeps accepting
   requests.  A ``solve`` joins a micro-batch: a dispatcher task drains
   the queue into batches of up to ``max_batch`` requests, waiting at
   most ``max_wait_s`` for stragglers, and its thread runs one
   :func:`repro.api.solve` per request (building a lazily-sent graph
   first).  An ``update`` applies its delta in place on the chain-head
   engine.
6. **Settlement** — the verb's success step (``solve``: result and
   graph into the store; ``update``: WAL, result and chain head), then the
   future's result or exception, the slot and cost released, and the
   outcome counted.  A failed update puts the chain head back under the
   parent digest.

Settlement follows the work, not the caller: a cancelled caller stops
waiting, but it neither cancels nor settles the work, so coalesced
followers and a retry see the real outcome.  Each request in a batch is
solved and its exception captured on its own, so a request whose engine
raises (e.g. a clique sent to an algorithm that needs a *nice* graph)
fails only its own future (see ``tests/test_gateway_lifecycle.py``).

Graph streams: an ``update`` is an edge delta against a previously
served instance, addressed by the digest its reply carried.  The first
update against a parent builds a chain-head :class:`repro.core.
incremental.IncrementalColoring` engine from the stored graph + cached
coloring; every further update **moves** that engine along the version
chain (taken at the parent digest, delta applied in place via
:func:`repro.api.apply_incremental`, placed at the child digest), so a
long-lived stream pays the in-place price per op and never
re-materializes a child graph.  Child results are cached under
version-chained digests.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.api.config import SolverConfig
from repro.api.result import ColoringResult
from repro.api.solver import apply_incremental, solve
from repro.errors import (
    ServiceOverloadedError,
    ServiceProtocolError,
    StaleParentError,
)
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

__all__ = ["BatchingGateway", "GatewayReply", "UpdateReply", "DEFAULT_MAX_COST", "request_cost"]


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
    repair-statistics dict of the op that produced the child, read from
    ``result.stats["incremental"]``.
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


#: The default bound on the summed :func:`request_cost` of outstanding
#: requests, for a library gateway, an in-process ``ColoringServer`` and
#: ``repro serve`` alike.  There is no unbounded mode: a frame that names
#: a huge ``n`` must never reach an n-length build.
DEFAULT_MAX_COST = 8_000_000


#: What a verb hands the lifecycle once a request needs work: its
#: admission cost, the work (run in a worker thread) and the settlement
#: step (called with the work's result or exception).
_Prepared = tuple[int, Callable[[], ColoringResult], Callable[[Any], None]]


class _Request:
    """One admitted request, from reservation to settlement."""

    __slots__ = ("key", "op", "cost", "work", "finish", "future", "span")

    def __init__(self, key, op, cost, work, finish, future, span):
        self.key = key
        self.op = op
        self.cost = cost
        self.work = work
        self.finish = finish
        self.future = future
        self.span = span


def _run_batch(batch: list[_Request]) -> list[Any]:
    """Runs in the dispatcher's worker thread: one ``work()`` per request,
    each request's exception captured on its own."""
    outcomes: list[Any] = []
    for request in batch:
        try:
            outcomes.append(request.work())
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


class BatchingGateway:
    """Cache, coalescing, admission and micro-batching in front of the
    solver, for both the ``solve`` and the ``update`` verb.

    Parameters
    ----------
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
        requests attached to an in-flight request).  Followers cost no
        work but each holds its request payload, so they are bounded
        too; default ``8 * max_queue``.
    max_cost:
        Cost-aware admission bound: the summed :func:`request_cost`
        (``n + m``) of outstanding requests may not exceed this, so the
        bound sheds *backlog*, proportionally to the work actually
        queued.  A request that alone costs more is refused with
        :class:`ServiceProtocolError`, even when the gateway is idle: a
        tiny frame naming a huge ``n`` is turned away before its graph
        is built.  Always on: the default is :data:`DEFAULT_MAX_COST`,
        and a value below 1 is a ``ValueError``.
    tracer:
        The :class:`repro.obs.Tracer` child spans are recorded on
        (``gateway.cache_probe`` / ``gateway.coalesce_wait`` /
        ``gateway.admission`` / ``gateway.batch_execute`` /
        ``gateway.update_apply`` plus the synthesized per-solver-phase
        and per-repair-rung spans).  Spans are emitted only under a
        sampled ``parent_span`` — an untraced request costs nothing
        here.  Defaults to the disabled :data:`repro.obs.NULL_TRACER`.
    """

    def __init__(
        self,
        *,
        metrics: ServiceMetrics | None = None,
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        max_queue: int = 64,
        max_followers: int | None = None,
        max_cost: int = DEFAULT_MAX_COST,
        storage: "StorageConfig | StorageBundle | None" = None,
        tracer: Tracer | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_followers is not None and max_followers < 1:
            raise ValueError(f"max_followers must be >= 1, got {max_followers}")
        if max_cost < 1:
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
        self.last_replay: dict | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.max_batch = max_batch
        self.max_wait_s = max(0.0, max_wait_s)
        self.max_queue = max_queue
        self.max_followers = (
            max_followers if max_followers is not None else 8 * max_queue
        )
        self.max_cost = max_cost
        self._queue: deque[_Request] = deque()
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
        """Replay durable state (chain heads from the WAL) when there is
        any — the warm-restart path — before the server binds."""
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
                self.storage.wal, self.cache, meters=self.storage.meters
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
        """Drain the queue, stop the dispatcher, close owned storage."""
        self._running = False
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._owns_storage:
            self.storage.close()

    async def __aenter__(self) -> "BatchingGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- the verbs ---------------------------------------------------------

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
        invoked — in the dispatcher's worker thread — when the request
        actually needs a solve.  The TCP server uses this to answer cache
        hits without paying graph construction and validation
        (:func:`repro.service.fingerprint.edge_keys_fingerprint` hashes
        the raw payload).  ``cost`` is the request's admission weight
        (:func:`request_cost`); it is computed from the graph when
        omitted, but lazy factories should pass it explicitly (the
        payload's ``n`` and edge count are known before construction).

        Raises :class:`ServiceOverloadedError` immediately when the
        outstanding-request or outstanding-cost bound is hit,
        :class:`ServiceProtocolError` when ``cost`` alone exceeds
        ``max_cost``, and re-raises the engine's own error (or the factory's construction error) if the solve fails.

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
                # the canonical hash is O(m) (C when the kernel is
                # loaded, a Python walk when not) — keep million-edge
                # in-process submissions off the event loop
                fingerprint = await asyncio.get_running_loop().run_in_executor(
                    None, request_fingerprint, graph, config
                )
            else:
                fingerprint = request_fingerprint(graph, config)
        key = fingerprint

        def work() -> ColoringResult:
            nonlocal graph
            if callable(graph):
                graph = graph()  # build + validate: only misses pay this
            return solve(graph, config)

        def finish(outcome: Any) -> None:
            if not isinstance(outcome, BaseException):
                self.cache.put(key, outcome)
                # Retained under the same digest so a later `update`
                # can use this instance as its repair parent.
                self.cache.put_graph(key, graph)

        result, cached = await self._serve(
            key, "solve", parent_span, started, lambda: (cost, work, finish)
        )
        return GatewayReply(result=result, cached=cached, fingerprint=key)

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
        ``update``) reply carried.  If the store holds a live
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
        engine = parent_graph = parent_result = None

        def take_parent() -> _Prepared:
            # Take ownership of the chain head if one lives at the parent
            # digest (pop, not get: a concurrent update on the same parent
            # loses the race and sees a stale parent — retriable);
            # otherwise seed a fresh engine from the stored graph + cached
            # result.
            nonlocal engine, parent_graph, parent_result
            engine = self.cache.pop_engine(parent_digest)
            if engine is None:
                parent_graph = self.cache.get_graph(parent_digest)
                parent_result = self.cache.get(parent_digest)
                if parent_graph is None or parent_result is None:
                    raise StaleParentError(
                        f"unknown parent {parent_digest[:16]}…: no graph and "
                        "result in the store (evicted, never solved here, or a "
                        "chain that moved on); fall back to a full solve of the "
                        "child graph"
                    )
            sized = engine if engine is not None else parent_graph
            return request_cost(sized.n, sized.num_edges), work, finish

        def work() -> ColoringResult:
            nonlocal engine
            with self.tracer.start_span(
                "gateway.update_apply", parent=parent_span
            ) as span:
                if engine is None:
                    from repro.core.incremental import IncrementalColoring

                    engine = IncrementalColoring.from_result(
                        parent_graph, parent_result, config=config
                    )
                updated = apply_incremental(
                    engine, edges_added, edges_removed, config,
                    materialize_graph=False,
                )
                span.set_attr("full_resolve", bool(updated.update.get("full_resolve")))
            # Repair-rung children synthesized from the engine's own wall
            # breakdown, laid end-to-end under the apply span.
            offset = 0.0
            for rung, wall in updated.update.get("rung_wall_s", {}).items():
                self.tracer.emit(f"repair.{rung}", span, wall, offset_s=offset)
                offset += wall
            return updated.result

        def finish(outcome: Any) -> None:
            if isinstance(outcome, BaseException):
                # A refused or rejected delta leaves the engine exactly as
                # it was (the engine's rollback contract), so the chain
                # head goes back where it was and the caller may correct
                # and retry.
                if engine is not None:
                    self.cache.put_engine(parent_digest, engine)
                return
            if self.storage.wal is not None:
                # Logged after the apply succeeded (facts, not intents):
                # replay reapplies exactly the deltas that once worked.
                self.storage.wal.append(
                    update_record(
                        parent_digest, child_digest, edges_added, edges_removed,
                        config,
                    )
                )
            self.cache.put(child_digest, outcome)
            self.cache.put_engine(child_digest, engine)

        result, cached = await self._serve(
            child_digest, "update", parent_span, started, take_parent
        )
        return UpdateReply(
            result=result,
            cached=cached,
            fingerprint=child_digest,
            parent_digest=parent_digest,
            update=dict(result.stats.get("incremental", {})),
        )

    # -- the request lifecycle ---------------------------------------------

    async def _serve(
        self,
        key: str,
        op: str,
        parent_span,
        started: float,
        prepare: Callable[[], _Prepared],
    ) -> tuple[ColoringResult, bool]:
        """Cache probe, coalesce-wait, admission, reservation, work and
        settlement for one request; returns ``(result, cached)``.

        ``prepare()`` runs only when the request needs work of its own
        (after the probe and the coalesce check).  It takes what the
        work needs and returns ``(cost, work, finish)``.  ``finish`` is
        also called with the :class:`ServiceOverloadedError` when
        admission refuses the request, so whatever ``prepare`` took goes
        back.
        """
        probe = self.tracer.start_span("gateway.cache_probe", parent=parent_span)
        hit = self.cache.get(key)
        if probe:
            probe.set_attr("hit", hit is not None).end()
        if hit is not None:
            self.metrics.record_request(time.perf_counter() - started, cached=True)
            return hit, True

        shared = self._inflight.get(key)
        if shared is not None:
            if self._followers >= self.max_followers:
                self.metrics.record_error("overloaded")
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
                self.metrics.record_error(error_kind(exc, op))
                raise
            finally:
                self._followers -= 1
            self.metrics.record_request(
                time.perf_counter() - started, cached=False, coalesced=True
            )
            return result, False

        try:
            cost, work, finish = prepare()
        except Exception as exc:
            self.metrics.record_error(error_kind(exc, op))
            raise
        try:
            with self.tracer.start_span(
                "gateway.admission", parent=parent_span,
            ) as admission:
                if admission:
                    admission.set_attr("outstanding", self._outstanding)
                    admission.set_attr("cost", cost)
                self._admit(cost)
        except (ServiceOverloadedError, ServiceProtocolError) as exc:
            finish(exc)
            raise

        # Reserved before any await, so concurrent duplicates coalesce
        # onto this future and the slot counts against the bounds.
        loop = asyncio.get_running_loop()
        request = _Request(
            key, op, cost, work, finish, loop.create_future(), parent_span
        )
        self._inflight[key] = request.future
        self._outstanding += 1
        self._outstanding_cost += cost
        self.metrics.set_queue_depth(self._outstanding)
        if op == "solve":
            self._queue.append(request)
            self._ensure_dispatcher()
            self._wake.set()
        else:
            loop.run_in_executor(None, work).add_done_callback(
                lambda done: self._settle(request, done.exception() or done.result())
            )
        # Shielded: a cancelled caller stops waiting, the work and its
        # settlement go on.
        result = await asyncio.shield(request.future)
        self.metrics.record_request(time.perf_counter() - started, cached=False)
        return result, False

    def _admit(self, cost: int) -> None:
        """Admission control: the request-count bound and the cost bound.  Raises :class:`ServiceOverloadedError` when the
        backlog is full, and :class:`ServiceProtocolError` for a request
        that alone costs more than ``max_cost`` (no retry can succeed)."""
        if cost > self.max_cost:
            self.metrics.record_error("protocol")
            raise ServiceProtocolError(
                f"request cost {cost} (n + m) exceeds this server's "
                f"max_cost {self.max_cost}; it is never admitted"
            )
        if self._outstanding >= self.max_queue:
            self.metrics.record_error("overloaded")
            raise ServiceOverloadedError(
                f"request queue full ({self._outstanding}/{self.max_queue} "
                "outstanding); retry with backoff"
            )
        if self._outstanding_cost + cost > self.max_cost:
            self.metrics.record_error("overloaded")
            raise ServiceOverloadedError(
                f"queued work too large (outstanding cost "
                f"{self._outstanding_cost} + {cost} > {self.max_cost}); "
                "retry with backoff"
            )

    def _settle(self, request: _Request, outcome: Any) -> None:
        """Settlement, on the event loop, once the request's work finished:
        the verb's ``finish`` step, then the future, the released slot and
        cost, and the outcome's metrics.  Never driven by the caller."""
        try:
            request.finish(outcome)
        except Exception as exc:  # e.g. a WAL append that failed
            outcome = exc
        self._outstanding -= 1
        self._outstanding_cost -= request.cost
        del self._inflight[request.key]
        self.metrics.set_queue_depth(self._outstanding)
        if isinstance(outcome, BaseException):
            self.metrics.record_error(error_kind(outcome, request.op))
            request.future.set_exception(outcome)
            # Retrieved here: a cancelled caller may leave no one to await
            # it, and coalesced followers still see it.
            request.future.exception()
        else:
            request.future.set_result(outcome)

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
            outcomes = await loop.run_in_executor(None, _run_batch, batch)
            batch_ended = time.perf_counter()
            for request, outcome in zip(batch, outcomes):
                if not isinstance(outcome, BaseException):
                    self._emit_solve_spans(
                        request, outcome, batch_started, batch_ended, len(batch)
                    )
                self._settle(request, outcome)

    def _emit_solve_spans(
        self,
        request: _Request,
        result: ColoringResult,
        batch_started: float,
        batch_ended: float,
        batch_size: int,
    ) -> None:
        """Record the batch-execute span (measured) plus one child per
        solver phase (synthesized from each ``phase_stats`` entry's
        ``wall_s``, also for a phase that charged 0 rounds) under a
        sampled request's span.  Untraced requests skip out in one
        check."""
        if not request.span:
            return
        exec_span = self.tracer.record(
            "gateway.batch_execute",
            request.span,
            batch_started,
            batch_ended,
            attrs={"batch_size": batch_size, "algorithm": result.algorithm},
        )
        offset = 0.0
        for phase, stats in result.phase_stats.items():
            wall = stats.get("wall_s")
            if not isinstance(wall, (int, float)):
                continue  # an engine registered from outside the package
            self.tracer.emit(
                f"solver.{phase}", exec_span, wall, offset_s=offset,
                attrs={"rounds": result.phase_rounds.get(phase, 0)},
            )
            offset += wall

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Gateway-level counters merged with store and metrics snapshots."""
        out = {
            "max_batch": self.max_batch,
            "max_wait_ms": round(1000 * self.max_wait_s, 3),
            "max_queue": self.max_queue,
            "max_followers": self.max_followers,
            "max_cost": self.max_cost,
            "outstanding": self._outstanding,
            "outstanding_cost": self._outstanding_cost,
            "followers": self._followers,
            "coalesced": self.coalesced,
            **self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }
        if self.storage.durable is not None:
            storage = self.storage.stats()
            if self.last_replay is not None:
                storage["replay"] = self.last_replay
            out["storage"] = storage
        return out
