"""Counters, gauges, histograms: the aggregate half of :mod:`repro.obs`.

A :class:`MetricsRegistry` holds named instruments; each instrument may
declare label names and keeps one value per label-value tuple (the
Prometheus data model, stdlib-only).  Two expositions:

* :meth:`MetricsRegistry.as_dict` — a JSON snapshot, served by the
  ``metrics`` verb and mergeable across shards with
  :func:`merge_snapshots` (the router fans out, merges, and serves one
  fleet view);
* :func:`render_prometheus` — the Prometheus text format, rendered from
  a snapshot dict rather than a live registry so the router can expose
  the *merged* fleet snapshot through the same function.

:func:`histogram_summary` reads nearest-rank percentiles off a histogram
snapshot entry (one process's or a merged fleet's), so the ``stats``
verb's latency sections come from the same buckets as the exposition.

Recording is a dict upsert under one lock per registry — cheap enough
for the serving path (the admission/batching locks around it dominate).
Process-level gauges (RSS, GC collections, thread count) are registered
as callbacks, read only at snapshot time.
"""

from __future__ import annotations

import gc
import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "merge_snapshots",
    "histogram_summary",
    "percentile",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Histogram bucket bounds (seconds) tuned to the service's latency
#: range: cached hits are sub-millisecond, cold million-edge solves run
#: tens of seconds.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(
    labelnames: tuple[str, ...], labels: dict[str, Any]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """Monotonic counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "values": [
                {"labels": list(key), "value": value}
                for key, value in sorted(values.items())
            ],
        }


class Gauge:
    """Set-to-current-value instrument; may be callback-backed.

    A callback gauge (``Gauge(..., callback=fn)``) reads ``fn()`` at
    snapshot time instead of storing sets — how process stats (RSS, GC,
    threads) are exposed without a background sampler thread.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        if callback is not None and self.labelnames:
            raise ValueError("callback gauges cannot be labelled")
        self._callback = callback
        self._values: dict[tuple[str, ...], float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        if self._callback is not None:
            return float(self._callback())
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self) -> dict[str, Any]:
        if self._callback is not None:
            try:
                values = {(): float(self._callback())}
            except Exception:  # a broken probe must not break the scrape
                values = {}
        else:
            with self._lock:
                values = dict(self._values)
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "values": [
                {"labels": list(key), "value": value}
                for key, value in sorted(values.items())
            ],
        }


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` bumps the first bucket whose bound is >= the sample; the
    exposition renders cumulative counts with a ``+Inf`` bucket plus
    ``_sum``/``_count`` series.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._series: dict[tuple[str, ...], dict[str, Any]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "counts": [0] * (len(self.buckets) + 1),  # +Inf last
                    "sum": 0.0,
                    "count": 0,
                }
            series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            series = {
                key: {
                    "counts": list(value["counts"]),
                    "sum": value["sum"],
                    "count": value["count"],
                }
                for key, value in self._series.items()
            }
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "buckets": list(self.buckets),
            "values": [
                {"labels": list(key), **value}
                for key, value in sorted(series.items())
            ],
        }


class MetricsRegistry:
    """A named collection of instruments with one JSON snapshot.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument (so wiring code can be
    idempotent), and asking with conflicting label names raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type[Any], name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                wanted = tuple(kwargs.get("labelnames", ()))
                if tuple(existing.labelnames) != wanted:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {wanted}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help, labelnames=tuple(labelnames)
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, help, labelnames=tuple(labelnames), callback=callback
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames=tuple(labelnames),
            buckets=tuple(buckets),
        )

    def as_dict(self) -> dict[str, Any]:
        """``{metric_name: {kind, help, labelnames, values, ...}}``."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst._snapshot() for name, inst in sorted(instruments.items())}

    def install_process_gauges(self) -> None:
        """Register the standard process gauges (idempotent)."""
        self.gauge(
            "process_resident_memory_bytes",
            "Resident set size of this process",
            callback=_rss_bytes,
        )
        self.gauge(
            "process_threads",
            "Live threads in this process",
            callback=lambda: float(threading.active_count()),
        )
        self.gauge(
            "process_gc_collections_total",
            "Garbage collections across all generations",
            callback=lambda: float(sum(s["collections"] for s in gc.get_stats())),
        )


def _rss_bytes() -> float:
    """Resident set size: /proc on Linux, getrusage elsewhere."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:
        pass
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS
        return float(rss_kb) * (1.0 if rss_kb > 1 << 32 else 1024.0)
    except Exception:  # pragma: no cover - defensive
        return 0.0


# -- exposition ------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labelnames: list[str], labelvalues: list[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.as_dict` snapshot as Prometheus
    text exposition format (version 0.0.4).

    Takes the snapshot dict, not a registry, so merged fleet snapshots
    (:func:`merge_snapshots`) render through the same code path.
    """
    lines: list[str] = []
    for name, metric in sorted(snapshot.items()):
        kind = metric.get("kind", "untyped")
        help_text = (metric.get("help") or "").replace("\n", " ")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        labelnames = list(metric.get("labelnames", ()))
        if kind == "histogram":
            buckets = list(metric.get("buckets", ()))
            for series in metric.get("values", ()):
                labelvalues = list(series["labels"])
                cumulative = 0
                for bound, count in zip(buckets, series["counts"]):
                    cumulative += count
                    bucket_labels = _labels_text(
                        labelnames + ["le"], labelvalues + [_format_value(bound)]
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
                cumulative += series["counts"][len(buckets)]
                inf_labels = _labels_text(
                    labelnames + ["le"], labelvalues + ["+Inf"]
                )
                lines.append(f"{name}_bucket{inf_labels} {cumulative}")
                plain = _labels_text(labelnames, labelvalues)
                lines.append(f"{name}_sum{plain} {_format_value(series['sum'])}")
                lines.append(f"{name}_count{plain} {series['count']}")
        else:
            for series in metric.get("values", ()):
                labels = _labels_text(labelnames, list(series["labels"]))
                lines.append(f"{name}{labels} {_format_value(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(snapshots: "list[dict[str, Any]]") -> dict[str, Any]:
    """Fold per-process registry snapshots into one fleet snapshot.

    Counters and histograms sum per (metric, label tuple); gauges sum
    too — the fleet's RSS/threads/queue depth is the sum of its
    processes' (for a per-shard view, read the ``shards`` sections of
    the router's ``stats`` reply).  Metrics present in only some
    snapshots merge from those that have them.
    """
    merged: dict[str, Any] = {}
    for snapshot in snapshots:
        for name, metric in snapshot.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    **metric,
                    "values": [dict(v) for v in metric.get("values", ())],
                }
                continue
            by_labels = {
                tuple(series["labels"]): series
                for series in target["values"]
            }
            for series in metric.get("values", ()):
                key = tuple(series["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    appended = dict(series)
                    target["values"].append(appended)
                    by_labels[key] = appended
                elif metric.get("kind") == "histogram":
                    existing["counts"] = [
                        a + b
                        for a, b in zip(existing["counts"], series["counts"])
                    ]
                    existing["sum"] += series["sum"]
                    existing["count"] += series["count"]
                else:
                    existing["value"] += series["value"]
            target["values"].sort(key=lambda series: series["labels"])
    return merged


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    return sorted_samples[_nearest_rank(q, len(sorted_samples)) - 1]


def _nearest_rank(q: float, n: int) -> int:
    """1-based rank of the ``q``-th percentile among ``n`` samples."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    # Nearest-rank uses ceil, not round: round()'s banker's rounding would
    # bias exact half-ranks one rank low (p50 of 5 samples must be the 3rd).
    return min(n, max(1, math.ceil(q / 100.0 * n)))


def histogram_summary(metric: dict[str, Any], **labels: Any) -> dict[str, float]:
    """``{count, p50_ms, p95_ms, p99_ms, max_ms}`` of a histogram entry.

    ``metric`` is one histogram of a :meth:`MetricsRegistry.as_dict` or
    :func:`merge_snapshots` snapshot.  Series whose labels match
    ``labels`` are summed (no labels: all of them).  Each quantile is the
    upper bound of the bucket holding the nearest-rank sample, so it
    reads in bucket resolution: the true value is at most that bound and
    above the bucket below.  ``max_ms`` is the bound of the highest
    non-empty bucket; a rank in the ``+Inf`` bucket reads as the largest
    finite bound.  No matching samples: ``{"count": 0}``.
    """
    bounds = list(metric["buckets"])
    names = list(metric["labelnames"])
    wanted = {name: str(value) for name, value in labels.items()}
    counts = [0] * (len(bounds) + 1)
    for series in metric.get("values", ()):
        own = dict(zip(names, series["labels"]))
        if all(own.get(name) == value for name, value in wanted.items()):
            counts = [a + b for a, b in zip(counts, series["counts"])]
    total = sum(counts)
    if not total:
        return {"count": 0}

    def bound_ms(rank: int) -> float:
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank:
                break
        return round(1000 * bounds[min(index, len(bounds) - 1)], 3)

    summary: dict[str, float] = {"count": total}
    for q in (50, 95, 99):
        summary[f"p{q}_ms"] = bound_ms(_nearest_rank(q, total))
    summary["max_ms"] = bound_ms(total)
    return summary
