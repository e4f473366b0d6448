"""repro.obs — dependency-free tracing and metrics.

The instrumentation layer under the service (and, eventually, the
CONGEST-mode message ledger): request-scoped :class:`Span` trees that
cross the NDJSON wire via the optional ``trace`` request field, plus a
Prometheus-style :class:`MetricsRegistry` of counters/gauges/histograms
behind the ``metrics`` server verb.

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span`, bounded span
  ring, JSONL export, parent-based sampling, the :data:`NOOP_SPAN`
  zero-cost fast path;
* :mod:`repro.obs.meters` — instruments, JSON snapshot + Prometheus
  text exposition, cross-shard snapshot merging, process gauges;
* :mod:`repro.obs.render` — ``repro trace``'s waterfall / top-N-slow
  rendering over exported JSONL spans.

See docs/OBSERVABILITY.md for the span model and wire format.
"""

from repro.obs.meters import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_summary,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.render import (
    TraceView,
    group_traces,
    render_report,
    render_trace,
)
from repro.obs.trace import (
    NOOP_SPAN,
    NULL_TRACER,
    NoopSpan,
    Span,
    Tracer,
    load_spans,
)

__all__ = [
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "NULL_TRACER",
    "load_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "histogram_summary",
    "merge_snapshots",
    "TraceView",
    "group_traces",
    "render_trace",
    "render_report",
]
