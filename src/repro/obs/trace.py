"""Spans and tracers: the request-path half of :mod:`repro.obs`.

One request through the sharded service crosses five tiers — router →
shard worker → gateway/batcher → solver pool → phase pipeline — and a
:class:`Span` tree is the only structure that can say *where inside one
request* the time went (metrics aggregate across requests; spans
decompose within one).  The model is deliberately the OpenTelemetry
core, with none of its weight:

* a **trace** is identified by a 32-hex ``trace_id`` shared by every
  span of one request, across processes;
* a **span** is one timed operation: 16-hex ``span_id``, ``parent_id``
  linking it into the tree, a name, a monotonic start + duration, and a
  small flat ``attrs`` dict;
* context crosses the NDJSON wire as the optional ``trace`` request
  field — ``{"trace_id": ..., "span_id": ...}`` — which the receiving
  tier passes as ``remote_parent`` to continue the tree.

Everything is stdlib-only and cheap enough for the serving hot path:

* a disabled or non-sampled tracer hands out the shared
  :data:`NOOP_SPAN` singleton — no allocation, no clock reads, no lock
  (the "sampling off costs ≤2%" budget in benchmarks/bench_s4_obs.py
  holds the service to this);
* finished spans land in a bounded ring (old spans drop, the process
  never grows) and, when ``export_path`` is set, append to a JSONL file
  one object per line — the input of ``repro trace``;
* sampling is decided once, at the root: child spans inherit the
  decision, and a remote parent context forces it on (the router made
  the call for the whole fleet).

Wall-clock timestamps: spans carry ``start_s`` in epoch seconds
(derived once per span from ``time.time`` anchored to a
``perf_counter`` offset) so spans from different processes order
correctly in one waterfall, while durations are pure ``perf_counter``
deltas.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from types import TracebackType
from typing import Any

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "NULL_TRACER",
    "load_spans",
]


class NoopSpan:
    """The do-nothing span handed out when tracing is off or unsampled.

    A single module-level instance (:data:`NOOP_SPAN`) is shared by every
    caller — the hot path allocates nothing.  All mutators are no-ops and
    it is falsy, so ``if span:`` guards optional work (attr formatting,
    context injection) without an ``isinstance`` check.
    """

    __slots__ = ()

    sampled = False
    trace_id = ""
    span_id = ""

    def set_attr(self, key: str, value: Any) -> "NoopSpan":
        return self

    def end(self) -> None:
        return None

    def wire_context(self) -> None:
        return None

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NoopSpan()"


NOOP_SPAN = NoopSpan()


class Span:
    """One timed operation in a trace tree.

    Created via :meth:`Tracer.start_span`; finished with :meth:`end` (or
    the context-manager protocol).  ``attrs`` values should be small
    JSON-able scalars — they ride in every exported line.
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "start_s", "_t0", "duration_s", "attrs", "_ended",
    )

    sampled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        t0: float | None = None,
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self._t0 = time.perf_counter() if t0 is None else t0
        self.start_s = tracer._epoch + (self._t0 - tracer._epoch_t0)
        self.duration_s: float | None = None
        self.attrs: dict[str, Any] = {}
        self._ended = False

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def end(self) -> None:
        """Finish the span (idempotent) and hand it to the tracer."""
        if self._ended:
            return
        self._ended = True
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0
        self.tracer._finish(self)

    def wire_context(self) -> dict[str, str]:
        """The ``trace`` field to put on a forwarded NDJSON request."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s or 0.0, 6),
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}…, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class Tracer:
    """Creates spans, keeps the recent ones, optionally exports JSONL.

    Parameters
    ----------
    enabled:
        Master switch; off hands out :data:`NOOP_SPAN` everywhere.
    sample:
        Root sampling probability in ``[0, 1]``.  Decided once per trace
        at the root span; children (local and remote) inherit.  ``0.0``
        keeps the tracer "on" but tracing nothing locally — it still
        honours remote parents, so a shard at ``sample=0`` traces
        exactly the requests its router sampled.
    max_spans:
        Ring-buffer bound on retained finished spans.
    export_path:
        Append finished spans to this JSONL file (one object per line,
        created eagerly so an idle process still leaves a readable file).
    slow_threshold_s:
        Root spans at least this slow are also kept in
        :attr:`slow_exemplars` (most recent ``max_exemplars``) — the
        "why was *that* request slow" ring that survives even when the
        main ring has churned past it.
    seed:
        Id-stream seed (tests); defaults to OS entropy.  Ids come from a
        private :class:`random.Random` so tracing never perturbs any
        solver's seeded rng stream.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        sample: float = 1.0,
        max_spans: int = 4096,
        export_path: str | None = None,
        slow_threshold_s: float = 1.0,
        max_exemplars: int = 32,
        seed: int | None = None,
    ):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.sample = sample
        self.slow_threshold_s = slow_threshold_s
        self.export_path = export_path
        self._rng = random.Random(seed if seed is not None else os.urandom(8))
        self._lock = threading.Lock()
        self._spans: deque[dict[str, Any]] = deque(maxlen=max_spans)
        self.slow_exemplars: deque[dict[str, Any]] = deque(maxlen=max_exemplars)
        self.dropped = 0  # finished spans pushed out of the ring
        self.finished = 0  # all-time finished span count
        # One epoch anchor per tracer: wall time is read once, span
        # timestamps are perf_counter offsets from it (monotonic within
        # the process, comparable across processes to ~clock accuracy).
        self._epoch = time.time()
        self._epoch_t0 = time.perf_counter()
        if export_path:
            with open(export_path, "a", encoding="utf-8"):
                pass

    # -- span creation -----------------------------------------------------

    def _new_id(self, bits: int) -> str:
        return f"{self._rng.getrandbits(bits):0{bits // 4}x}"

    def start_span(
        self,
        name: str,
        parent: "Span | NoopSpan | None" = None,
        *,
        remote_parent: dict[str, Any] | None = None,
        attrs: dict[str, Any] | None = None,
        start: float | None = None,
    ) -> "Span | NoopSpan":
        """Start a span; returns :data:`NOOP_SPAN` when not sampled.

        ``parent`` continues a local span's trace; ``remote_parent`` a
        wire context (``{"trace_id", "span_id"}`` — a malformed one is
        ignored rather than poisoning the request).  With neither, this
        is a root span and the sampling decision is made here.
        ``start`` is a ``time.perf_counter()`` reading taken earlier: a
        span whose context is only known after some of its work (the
        server's request span, which learns its remote parent by
        decoding the request) starts there instead of now.
        """
        if not self.enabled:
            return NOOP_SPAN
        if remote_parent is not None and not _valid_context(remote_parent):
            remote_parent = None  # junk context: treat as absent
        if parent is not None and parent:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif remote_parent is not None:
            trace_id = remote_parent["trace_id"]
            parent_id = remote_parent["span_id"]
        elif parent is None:
            if self.sample < 1.0 and self._rng.random() >= self.sample:
                return NOOP_SPAN
            trace_id, parent_id = self._new_id(128), None
        else:
            # a NOOP parent: the upstream decided not to sample this
            # request — stay out of the trace entirely
            return NOOP_SPAN
        span = Span(self, name, trace_id, self._new_id(64), parent_id, start)
        if attrs:
            span.attrs.update(attrs)
        return span

    def record(
        self,
        name: str,
        parent: "Span | NoopSpan",
        start: float,
        end: float,
        *,
        attrs: dict[str, Any] | None = None,
    ) -> "Span | NoopSpan":
        """Record a finished child of ``parent`` from two measured
        ``time.perf_counter()`` readings (work that ran before its span
        could exist, like the decode that finds the request's trace
        context, or that ran in another thread)."""
        if not parent:
            return NOOP_SPAN
        span = Span(self, name, parent.trace_id, self._new_id(64), parent.span_id, start)
        span.duration_s = max(0.0, end - start)
        if attrs:
            span.attrs.update(attrs)
        span.end()
        return span

    def emit(
        self,
        name: str,
        parent: "Span | NoopSpan | None",
        duration_s: float,
        *,
        offset_s: float = 0.0,
        attrs: dict[str, Any] | None = None,
    ) -> "Span | NoopSpan":
        """Record an already-finished child span from a measured duration.

        Solver phases and repair rungs are timed inside engines that know
        nothing about tracing; their recorded wall times are synthesized
        into spans after the fact.  ``offset_s`` places the span's start
        relative to the parent's start (phases are sequential, so callers
        accumulate offsets to lay them end-to-end).
        """
        if parent is None or not parent:
            return NOOP_SPAN
        span = Span(self, name, parent.trace_id, self._new_id(64), parent.span_id)
        span.start_s = parent.start_s + offset_s
        span.duration_s = max(0.0, duration_s)
        if attrs:
            span.attrs.update(attrs)
        span.end()
        return span

    # -- collection --------------------------------------------------------

    def _finish(self, span: Span) -> None:
        record = span.as_dict()
        line = None
        if self.export_path:
            line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            self.finished += 1
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(record)
            if (
                span.parent_id is None
                and (span.duration_s or 0.0) >= self.slow_threshold_s
            ):
                self.slow_exemplars.append(record)
            if line is not None:
                with open(self.export_path, "a", encoding="utf-8") as handle:
                    handle.write(line)

    def spans(self) -> list[dict[str, Any]]:
        """Finished spans still in the ring (oldest first)."""
        with self._lock:
            return list(self._spans)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample": self.sample,
                "finished": self.finished,
                "buffered": len(self._spans),
                "dropped": self.dropped,
                "slow_exemplars": len(self.slow_exemplars),
            }


def _valid_context(context: Any) -> bool:
    return (
        isinstance(context, dict)
        and isinstance(context.get("trace_id"), str)
        and isinstance(context.get("span_id"), str)
        and bool(context["trace_id"])
        and bool(context["span_id"])
    )


#: Shared disabled tracer: the default wherever a tracer is optional, so
#: call sites never need a None check.
NULL_TRACER = Tracer(enabled=False)


def load_spans(paths: "list[str]") -> list[dict[str, Any]]:
    """Read span records from JSONL files (or directories of them).

    Lines that fail to parse are skipped (a crashed process may leave a
    torn final line); the result is every span of every file, unsorted —
    grouping and ordering belong to the renderer.
    """
    span_files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            span_files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            )
        else:
            span_files.append(path)
    records: list[dict[str, Any]] = []
    for span_file in span_files:
        with open(span_file, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "span_id" in record:
                    records.append(record)
    return records
