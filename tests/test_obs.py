"""Unit coverage for :mod:`repro.obs` and the metrics satellites.

Span identity / parentage / sampling, the bounded ring, JSONL export and
``load_spans``, synthesized (``emit``) spans, the instrument registry
with its Prometheus exposition and cross-process snapshot merge, the
waterfall renderer, plus the :mod:`repro.service.metrics` satellites:
the histogram percentile summary and the typed error-kind classifier.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    IncrementalUpdateError,
    ServiceOverloadedError,
    ServiceProtocolError,
    ShardUnavailableError,
    StaleParentError,
)
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    Tracer,
    group_traces,
    histogram_summary,
    load_spans,
    merge_snapshots,
    render_prometheus,
    render_report,
)
from repro.obs.meters import DEFAULT_LATENCY_BUCKETS
from repro.service.metrics import (
    ServiceMetrics,
    error_kind,
    percentile,
)


class TestSpans:
    def test_ids_parentage_and_attrs(self):
        tracer = Tracer(seed=7)
        root = tracer.start_span("root", attrs={"op": "solve"})
        child = tracer.start_span("child", parent=root)
        assert len(root.trace_id) == 32 and len(root.span_id) == 16
        assert root.parent_id is None
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        # set_attr chains; wire_context is exactly the forwarded field
        child.set_attr("shard", 1).end()
        root.end()
        assert root.wire_context() == {
            "trace_id": root.trace_id, "span_id": root.span_id,
        }
        records = tracer.spans()
        assert [r["name"] for r in records] == ["child", "root"]
        assert records[0]["attrs"] == {"shard": 1}
        assert records[1]["attrs"] == {"op": "solve"}

    def test_context_manager_records_error_attr(self):
        tracer = Tracer(seed=7)
        with pytest.raises(ValueError):
            with tracer.start_span("failing"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record["attrs"]["error"] == "ValueError"

    def test_end_is_idempotent(self):
        tracer = Tracer(seed=7)
        span = tracer.start_span("once")
        span.end()
        span.end()
        assert tracer.stats()["finished"] == 1

    def test_ring_bound_drops_oldest(self):
        tracer = Tracer(seed=7, max_spans=4)
        for i in range(10):
            tracer.start_span(f"s{i}").end()
        records = tracer.spans()
        assert [r["name"] for r in records] == ["s6", "s7", "s8", "s9"]
        stats = tracer.stats()
        assert stats["finished"] == 10
        assert stats["dropped"] == 6
        assert stats["buffered"] == 4

    def test_emit_places_children_by_offset(self):
        tracer = Tracer(seed=7)
        root = tracer.start_span("root")
        first = tracer.emit("phase-a", root, 0.5, attrs={"rounds": 3})
        second = tracer.emit("phase-b", root, 0.25, offset_s=0.5)
        assert first.start_s == pytest.approx(root.start_s)
        assert second.start_s == pytest.approx(root.start_s + 0.5)
        assert first.duration_s == pytest.approx(0.5)
        # an emitted span is already finished
        assert {r["name"] for r in tracer.spans()} == {"phase-a", "phase-b"}
        # emit against a NOOP parent allocates nothing
        assert tracer.emit("ghost", NOOP_SPAN, 1.0) is NOOP_SPAN


class TestSampling:
    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_span("anything")
        assert span is NOOP_SPAN
        assert not span
        span.set_attr("k", "v").end()
        assert tracer.stats()["finished"] == 0

    def test_sample_zero_roots_are_noop_but_remote_parent_forces_on(self):
        tracer = Tracer(sample=0.0, seed=7)
        assert tracer.start_span("root") is NOOP_SPAN
        # the upstream tier sampled this request: honour its decision
        remote = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
        span = tracer.start_span("continued", remote_parent=remote)
        assert span.trace_id == remote["trace_id"]
        assert span.parent_id == remote["span_id"]

    def test_noop_parent_propagates_the_off_decision(self):
        tracer = Tracer(sample=1.0, seed=7)
        assert tracer.start_span("child", parent=NOOP_SPAN) is NOOP_SPAN

    def test_malformed_remote_context_is_ignored(self):
        tracer = Tracer(seed=7)
        span = tracer.start_span("root", remote_parent={"trace_id": 123})
        assert span.parent_id is None  # fell back to a fresh root


class TestExport:
    def test_jsonl_export_and_load_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(seed=7, export_path=str(path))
        with tracer.start_span("outer") as outer:
            tracer.start_span("inner", parent=outer).end()
        records = load_spans([str(path)])
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["trace_id"] == records[1]["trace_id"]

    def test_load_spans_reads_directories_and_skips_torn_lines(self, tmp_path):
        good = tmp_path / "a.jsonl"
        tracer = Tracer(seed=7, export_path=str(good))
        tracer.start_span("kept").end()
        with open(good, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # crashed process mid-line
        (tmp_path / "ignored.txt").write_text("not spans\n")
        records = load_spans([str(tmp_path)])
        assert [r["name"] for r in records] == ["kept"]

    def test_slow_exemplars_keep_slow_roots(self):
        tracer = Tracer(seed=7, slow_threshold_s=0.0)
        tracer.start_span("root").end()
        child_parent = tracer.start_span("root2")
        tracer.start_span("child", parent=child_parent).end()
        child_parent.end()
        # only roots land in the exemplar ring
        assert [r["name"] for r in tracer.slow_exemplars] == ["root", "root2"]


class TestMeters:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", labelnames=("op",))
        counter.inc(op="solve")
        counter.inc(2, op="update")
        assert counter.value(op="solve") == 1
        assert counter.total() == 3
        with pytest.raises(ValueError):
            counter.inc(-1, op="solve")
        with pytest.raises(ValueError):
            counter.inc(op="solve", extra="nope")

    def test_registry_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labelnames=("k",))
        assert registry.counter("c_total", labelnames=("k",)) is first
        with pytest.raises(ValueError):
            registry.gauge("c_total")
        with pytest.raises(ValueError):
            registry.counter("c_total", labelnames=("other",))

    def test_callback_gauge_reads_at_snapshot_time(self):
        registry = MetricsRegistry()
        box = {"value": 1.0}
        registry.gauge("boxed", callback=lambda: box["value"])
        assert registry.as_dict()["boxed"]["values"][0]["value"] == 1.0
        box["value"] = 5.0
        assert registry.as_dict()["boxed"]["values"][0]["value"] == 5.0

    def test_histogram_buckets_are_cumulative_in_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        text = render_prometheus(registry.as_dict())
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text
        assert "lat_seconds_sum 3.05" in text

    def test_prometheus_format_help_type_and_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "odd_total", "counts\nodd things", labelnames=("name",)
        )
        counter.inc(name='quo"te\\slash')
        text = render_prometheus(registry.as_dict())
        assert "# HELP odd_total counts odd things" in text
        assert "# TYPE odd_total counter" in text
        assert r'odd_total{name="quo\"te\\slash"} 1' in text
        assert text.endswith("\n")

    def test_merge_snapshots_sums_per_label_set(self):
        def make(amount: int) -> dict:
            registry = MetricsRegistry()
            registry.counter("req_total", labelnames=("op",)).inc(
                amount, op="solve"
            )
            registry.histogram("lat", buckets=(1.0,)).observe(0.5)
            registry.gauge("depth").set(amount)
            return registry.as_dict()

        merged = merge_snapshots([make(1), make(2)])
        assert merged["req_total"]["values"][0]["value"] == 3
        assert merged["lat"]["values"][0]["count"] == 2
        assert merged["depth"]["values"][0]["value"] == 3
        # disjoint metrics union in
        extra = MetricsRegistry()
        extra.counter("only_here_total").inc()
        merged = merge_snapshots([make(1), extra.as_dict()])
        assert merged["only_here_total"]["values"][0]["value"] == 1
        # a merged snapshot renders through the same exposition path
        assert "# TYPE req_total counter" in render_prometheus(merged)

    def test_process_gauges_never_list_every_object(self, monkeypatch):
        """A snapshot must not walk the heap: ``gc.get_objects()`` costs
        milliseconds per call at tens of thousands of objects, and every
        ``stats``/``metrics`` call takes a snapshot."""
        import gc

        def walk():
            raise AssertionError("snapshot listed every tracked object")

        monkeypatch.setattr(gc, "get_objects", walk)
        registry = MetricsRegistry()
        registry.install_process_gauges()
        snapshot = registry.as_dict()
        assert "process_resident_memory_bytes" in snapshot
        assert "process_gc_collections_total" in snapshot
        assert "process_gc_objects_tracked" not in snapshot


class TestRender:
    @staticmethod
    def _trace(trace_id: str, base: float, total: float) -> list[dict]:
        root_id = f"{trace_id[:15]}0"
        return [
            {
                "trace_id": trace_id, "span_id": root_id, "parent_id": None,
                "name": "router.request", "start_s": base,
                "duration_s": total,
            },
            {
                "trace_id": trace_id, "span_id": f"{trace_id[:15]}1",
                "parent_id": root_id, "name": "server.request",
                "start_s": base + total / 4, "duration_s": total / 2,
            },
        ]

    def test_report_ranks_slowest_first_and_filters(self):
        records = self._trace("a" * 32, 1.0, 0.010) + self._trace(
            "b" * 32, 2.0, 0.200
        )
        views = group_traces(records)
        assert [v.trace_id[0] for v in views] == ["b", "a"]
        assert views[0].duration_s == pytest.approx(0.200)

        report = render_report(records, top=5)
        assert "4 spans, 2 trace(s)" in report
        assert report.index("b" * 16) < report.index("a" * 16)

        only_a = render_report(records, trace_id="aaaa")
        assert "a" * 32 in only_a and "b" * 16 not in only_a
        slow_only = render_report(records, min_ms=100.0)
        assert "a" * 16 not in slow_only
        assert "no trace matching" in render_report(records, trace_id="zz")

    def test_orphan_spans_anchor_at_depth_zero(self):
        records = [
            {
                "trace_id": "c" * 32, "span_id": "1" * 16,
                "parent_id": "f" * 16,  # parent tier exported no file
                "name": "server.request", "start_s": 0.0, "duration_s": 0.1,
            }
        ]
        (view,) = group_traces(records)
        assert view.depth["1" * 16] == 0
        assert "server.request" in render_report(records)


def _bucket_ms(value: float) -> float:
    """The smallest bucket bound >= ``value`` in ms; past the last finite
    bound, that bound."""
    bound = next(
        (b for b in DEFAULT_LATENCY_BUCKETS if b >= value),
        DEFAULT_LATENCY_BUCKETS[-1],
    )
    return round(1000 * bound, 3)


_LATENCIES = st.lists(
    st.one_of(
        st.sampled_from(DEFAULT_LATENCY_BUCKETS),  # exactly on a bound
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


class TestHistogramSummary:
    def test_nearest_rank_percentiles(self):
        samples = [0.01, 0.02, 0.03, 0.04, 0.05]
        assert percentile(samples, 50) == 0.03
        assert percentile(samples, 95) == 0.05
        assert percentile(samples, 0) == 0.01
        with pytest.raises(ValueError):
            percentile([], 50)

    @settings(max_examples=60, deadline=None)
    @given(samples=_LATENCIES)
    def test_quantiles_are_the_bucket_of_the_nearest_rank_sample(self, samples):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", labelnames=("outcome",))
        for i, value in enumerate(samples):
            hist.observe(value, outcome="even" if i % 2 == 0 else "odd")
        entry = registry.as_dict()["lat"]
        for summary, subset in (
            (histogram_summary(entry), samples),
            (histogram_summary(entry, outcome="even"), samples[::2]),
        ):
            ordered = sorted(subset)
            assert summary["count"] == len(subset)
            for q in (50, 95, 99):
                expected = _bucket_ms(percentile(ordered, q))
                assert summary[f"p{q}_ms"] == expected
            assert summary["max_ms"] == _bucket_ms(percentile(ordered, 100))

    def test_empty_histogram_reports_only_a_zero_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", labelnames=("outcome",))
        assert histogram_summary(registry.as_dict()["lat"]) == {"count": 0}
        hist.observe(0.01, outcome="solved")
        entry = registry.as_dict()["lat"]
        assert histogram_summary(entry, outcome="cached") == {"count": 0}


class TestErrorKinds:
    def test_classifier_covers_the_taxonomy(self):
        cases = [
            (ShardUnavailableError("x"), "shard_unavailable"),
            (ServiceOverloadedError("x"), "overloaded"),
            (StaleParentError("x"), "stale_parent"),
            (IncrementalUpdateError("x"), "update"),
            (ServiceProtocolError("x"), "protocol"),
            (asyncio.CancelledError(), "cancelled"),
            (ValueError("anything else"), "engine"),
        ]
        for exc, kind in cases:
            assert error_kind(exc) == kind

    def test_service_metrics_split_sheds_from_failures(self):
        metrics = ServiceMetrics()
        metrics.record_error("overloaded")
        metrics.record_error("shard_unavailable")
        metrics.record_error("engine")
        metrics.record_error("stale_parent")
        metrics.record_error("protocol")
        assert metrics.rejected == 2
        assert metrics.failed == 3
        snap = metrics.snapshot()
        assert snap["errors"] == {
            "engine": 1, "overloaded": 1, "protocol": 1,
            "shard_unavailable": 1, "stale_parent": 1,
        }

    def test_snapshot_keeps_the_legacy_shape(self):
        metrics = ServiceMetrics()
        metrics.record_request(0.01, cached=False)
        metrics.record_request(0.001, cached=True)
        metrics.record_request(0.002, cached=False, coalesced=True)
        metrics.record_batch(2)
        metrics.set_queue_depth(3)
        metrics.set_queue_depth(1)
        snap = metrics.snapshot()
        assert snap["completed"] == 3
        assert snap["cached"] == 1
        assert snap["coalesced"] == 1
        assert snap["cache_hit_rate"] == pytest.approx(1 / 3, abs=1e-4)
        assert snap["latency"]["count"] == 3
        assert snap["latency_solved"]["count"] == 1
        assert snap["mean_batch_size"] == 2.0
        assert snap["queue_depth"] == 1
        assert snap["queue_depth_peak"] == 3
        # the same counts flow through the registry exposition
        text = render_prometheus(metrics.registry.as_dict())
        assert 'repro_requests_total{outcome="cached"} 1' in text
        assert 'repro_request_latency_seconds_count{outcome="solved"} 1' in text
        assert json.dumps(snap)  # snapshot stays JSON-serialisable
