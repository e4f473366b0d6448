"""Service-side request metrics: latency percentiles, QPS, queue depth.

Everything lives on a :class:`repro.obs.meters.MetricsRegistry` — the
same instruments behind the server's ``metrics`` verb and its Prometheus
exposition — with the legacy attribute names (``completed``,
``rejected``, ...) preserved as read-through properties.  Shed and
failed requests are labelled by typed error kind
(:func:`error_kind`: ``overloaded``, ``shard_unavailable``,
``stale_parent``, ``update``, ``engine``, ``protocol``, ``cancelled``),
so a router shed and an engine rejection are distinguishable in stats.

Latency has one mechanism: the ``repro_request_latency_seconds{outcome}``
histogram.  Recording a request is one observation there; the ``stats``
sections (``latency``, ``latency_cached``, ...) are read off its buckets
by :func:`latency_sections`, cumulative since start, with each percentile
the upper bound of the bucket holding the nearest-rank sample.  Bucket
counts add across processes, so the shard router reports true fleet
percentiles from the merged histogram through the same function.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.errors import (
    GraphError,
    IncrementalUpdateError,
    ServiceOverloadedError,
    ServiceProtocolError,
    ShardUnavailableError,
    StaleParentError,
)
from repro.obs.meters import MetricsRegistry, histogram_summary, percentile

__all__ = ["ServiceMetrics", "latency_sections", "percentile", "error_kind"]

#: The request-latency histogram every ``stats`` latency section reads.
LATENCY_METRIC = "repro_request_latency_seconds"


#: Error kinds that are *sheds* (admission refused; retriable) — they
#: count into the legacy ``rejected`` total.  Everything else counts as
#: ``failed``.
SHED_KINDS = frozenset({"overloaded", "shard_unavailable"})


def error_kind(exc: BaseException, op: str = "solve") -> str:
    """Map an exception to its error kind: the one taxonomy behind both
    the server's reply ``error.type`` and the ``repro_errors_total{kind}``
    label (docs/SERVICE.md has the table).

    ``op`` is the verb the error answers.  A :class:`GraphError` (self-
    loop, duplicate or out-of-range edge) is a malformed payload in a
    ``solve`` (``protocol``) and a rejected delta in an ``update``
    (``update``).
    """
    if isinstance(exc, ShardUnavailableError):
        return "shard_unavailable"
    if isinstance(exc, ServiceOverloadedError):
        return "overloaded"
    if isinstance(exc, StaleParentError):
        return "stale_parent"
    if isinstance(exc, IncrementalUpdateError):
        return "update"
    if isinstance(exc, GraphError):
        return "update" if op == "update" else "protocol"
    if isinstance(exc, ServiceProtocolError):
        return "protocol"
    if isinstance(exc, asyncio.CancelledError):
        return "cancelled"
    return "engine"


def latency_sections(histogram: dict[str, Any]) -> dict[str, dict[str, float]]:
    """The ``stats`` latency sections of a :data:`LATENCY_METRIC` snapshot
    entry (one server's, or the router's merge of its shards'): all
    requests, then each ``outcome`` on its own."""
    return {
        "latency": histogram_summary(histogram),
        "latency_cached": histogram_summary(histogram, outcome="cached"),
        "latency_solved": histogram_summary(histogram, outcome="solved"),
        "latency_coalesced": histogram_summary(histogram, outcome="coalesced"),
    }


class ServiceMetrics:
    """Aggregated gateway metrics, exported as one JSON snapshot.

    Tracked per class of outcome: completed solves (split cached /
    coalesced / solved), rejections (load shedding), failures (engine
    errors) — the latter two labelled by :func:`error_kind` on the
    shared :class:`~repro.obs.meters.MetricsRegistry`.  ``queue_depth``
    is a gauge the batcher updates as requests enter and leave the
    dispatch queue; ``batches``/``batched_requests`` describe
    micro-batch shape.  Thread-safe for the same reason the cache is:
    completions are recorded from worker threads.
    """

    def __init__(
        self,
        clock=time.monotonic,
        registry: MetricsRegistry | None = None,
    ):
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.install_process_gauges()
        self._requests = self.registry.counter(
            "repro_requests_total",
            "Completed requests by outcome",
            labelnames=("outcome",),
        )
        self._errors = self.registry.counter(
            "repro_errors_total",
            "Shed and failed requests by typed error kind",
            labelnames=("kind",),
        )
        self._batches = self.registry.counter(
            "repro_batches_total", "Micro-batches dispatched"
        )
        self._batched_requests = self.registry.counter(
            "repro_batched_requests_total", "Requests carried by micro-batches"
        )
        self._latency_hist = self.registry.histogram(
            LATENCY_METRIC,
            "End-to-end gateway latency by outcome",
            labelnames=("outcome",),
        )
        self._queue_gauge = self.registry.gauge(
            "repro_queue_depth", "Outstanding admitted requests"
        )
        self._queue_peak_gauge = self.registry.gauge(
            "repro_queue_depth_peak", "High-water mark of the request queue"
        )
        self.queue_depth = 0
        self.queue_depth_peak = 0

    # -- legacy attribute names (read-through to the registry) -------------

    @property
    def completed(self) -> int:
        return int(self._requests.total())

    @property
    def cached(self) -> int:
        return int(self._requests.value(outcome="cached"))

    @property
    def coalesced(self) -> int:
        return int(self._requests.value(outcome="coalesced"))

    @property
    def rejected(self) -> int:
        return int(
            sum(self._errors.value(kind=kind) for kind in SHED_KINDS)
        )

    @property
    def failed(self) -> int:
        return int(self._errors.total()) - self.rejected

    @property
    def batches(self) -> int:
        return int(self._batches.total())

    @property
    def batched_requests(self) -> int:
        return int(self._batched_requests.total())

    # -- recording (hot path) ---------------------------------------------

    def record_request(
        self, latency_s: float, cached: bool, coalesced: bool = False
    ) -> None:
        """One completed request.  ``coalesced`` marks a duplicate served
        by someone else's in-flight solve — its own ``outcome`` series,
        so duplicate-heavy traffic doesn't distort the reported solve
        latency distribution."""
        outcome = "cached" if cached else ("coalesced" if coalesced else "solved")
        self._requests.inc(outcome=outcome)
        self._latency_hist.observe(latency_s, outcome=outcome)

    def record_error(self, kind: str) -> None:
        """Count one shed or failed request by :func:`error_kind`; kinds
        in :data:`SHED_KINDS` count as ``rejected``, the rest as
        ``failed``."""
        self._errors.inc(kind=kind)

    def record_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched_requests.inc(size)

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.queue_depth_peak = max(self.queue_depth_peak, depth)
        self._queue_gauge.set(depth)
        self._queue_peak_gauge.set(self.queue_depth_peak)

    # -- reporting ---------------------------------------------------------

    def errors_by_kind(self) -> dict[str, int]:
        snapshot = self._errors._snapshot()
        return {
            series["labels"][0]: int(series["value"])
            for series in snapshot["values"]
        }

    def snapshot(self) -> dict[str, Any]:
        """One JSON-serialisable view of everything above.

        ``qps`` is completed requests over total uptime — the long-run
        service rate, which open-loop load tests compare against their
        offered rate.
        """
        completed = self.completed
        cached = self.cached
        batches = self.batches
        batched_requests = self.batched_requests
        latency = latency_sections(self._latency_hist._snapshot())
        with self._lock:
            elapsed = max(1e-9, self._clock() - self.started_at)
            return {
                "uptime_s": round(elapsed, 3),
                "completed": completed,
                "cached": cached,
                "rejected": self.rejected,
                "failed": self.failed,
                "errors": self.errors_by_kind(),
                "qps": round(completed / elapsed, 2),
                "cache_hit_rate": round(
                    cached / completed if completed else 0.0, 4
                ),
                "coalesced": self.coalesced,
                **latency,
                "batches": batches,
                "mean_batch_size": round(
                    batched_requests / batches if batches else 0.0, 2
                ),
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
            }
