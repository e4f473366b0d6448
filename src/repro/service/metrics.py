"""Service-side request metrics: latency percentiles, QPS, queue depth.

The first subsystem in this repo for which *requests per second* is a
first-class measured quantity.  Kept dependency-free and cheap on the
hot path: recording a request is an append to a bounded ring plus a few
counter increments; percentile math happens only when a snapshot is
asked for — and only when samples arrived since the last one (the
sorted view is cached, so a tight metrics-poll loop costs O(1) per
scrape instead of re-sorting the full window).

Counters live on a :class:`repro.obs.meters.MetricsRegistry` — the same
instruments behind the server's ``metrics`` verb and its Prometheus
exposition — with the legacy attribute names (``completed``,
``rejected``, ...) preserved as read-through properties.  Shed and
failed requests are labelled by typed error kind
(:func:`error_kind`: ``overloaded``, ``shard_unavailable``,
``stale_parent``, ``update``, ``engine``, ``protocol``, ``cancelled``),
so a router shed and an engine rejection are distinguishable in stats.

Latencies feed a bounded reservoir (the most recent ``window`` samples),
so long-running servers report the *current* tail, not the all-time
mix.  Percentiles use the nearest-rank method on a sorted copy of the
window — exact for the window.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import deque
from typing import Any

from repro.errors import (
    GraphError,
    IncrementalUpdateError,
    ServiceOverloadedError,
    ServiceProtocolError,
    ShardUnavailableError,
    StaleParentError,
)
from repro.obs.meters import MetricsRegistry

__all__ = ["LatencyWindow", "ServiceMetrics", "percentile", "error_kind"]


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


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    # Nearest-rank uses ceil, not round: round()'s banker's rounding would
    # bias exact half-ranks one rank low (p50 of 5 samples must be the 3rd).
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


class LatencyWindow:
    """Bounded reservoir of recent latency samples with percentile queries.

    The ascending-sorted view is computed lazily and cached: ``record``
    marks it dirty, ``snapshot`` re-sorts only when samples arrived since
    the previous snapshot.  Metrics scrapes between requests are O(1).
    """

    def __init__(self, window: int = 8192):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        self._sorted: list[float] | None = []
        self.count = 0  # all-time, beyond the window

    def record(self, latency_s: float) -> None:
        self._samples.append(latency_s)
        self.count += 1
        self._sorted = None

    def _sorted_view(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def snapshot(self) -> dict[str, float]:
        """``{count, p50_ms, p95_ms, p99_ms, max_ms}`` over the window."""
        ordered = self._sorted_view()
        if not ordered:
            return {"count": 0}
        return {
            "count": self.count,
            "window": len(ordered),
            "p50_ms": round(1000 * percentile(ordered, 50), 3),
            "p95_ms": round(1000 * percentile(ordered, 95), 3),
            "p99_ms": round(1000 * percentile(ordered, 99), 3),
            "max_ms": round(1000 * ordered[-1], 3),
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
        latency_window: int = 8192,
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
            "repro_request_latency_seconds",
            "End-to-end gateway latency by outcome",
            labelnames=("outcome",),
        )
        self._queue_gauge = self.registry.gauge(
            "repro_queue_depth", "Outstanding admitted requests"
        )
        self._queue_peak_gauge = self.registry.gauge(
            "repro_queue_depth_peak", "High-water mark of the request queue"
        )
        self.latency = LatencyWindow(latency_window)
        self.cached_latency = LatencyWindow(latency_window)
        self.solved_latency = LatencyWindow(latency_window)
        self.coalesced_latency = LatencyWindow(latency_window)
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
        by someone else's in-flight solve — kept out of the solved-path
        window so duplicate-heavy traffic doesn't distort the reported
        solve latency distribution."""
        outcome = "cached" if cached else ("coalesced" if coalesced else "solved")
        self._requests.inc(outcome=outcome)
        self._latency_hist.observe(latency_s, outcome=outcome)
        with self._lock:
            self.latency.record(latency_s)
            if cached:
                self.cached_latency.record(latency_s)
            elif coalesced:
                self.coalesced_latency.record(latency_s)
            else:
                self.solved_latency.record(latency_s)

    def record_rejected(self, kind: str = "overloaded") -> None:
        self._errors.inc(kind=kind)

    def record_failed(self, kind: str = "engine") -> None:
        self._errors.inc(kind=kind)

    def record_error(self, kind: str) -> None:
        """Count a reply-layer error (e.g. a malformed request) that never
        reached the gateway's shed/failed paths."""
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
                "latency": self.latency.snapshot(),
                "latency_cached": self.cached_latency.snapshot(),
                "latency_solved": self.solved_latency.snapshot(),
                "latency_coalesced": self.coalesced_latency.snapshot(),
                "batches": batches,
                "mean_batch_size": round(
                    batched_requests / batches if batches else 0.0, 2
                ),
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
            }
