"""Tests for repro.obs (span tracer, metrics registry, report rendering).

The tracer's load-bearing properties: correct parent/child nesting across
context-manager and retroactive-record APIs, bounded memory via the ring
buffer, a lossless JSONL round-trip, and zero effect when disabled.  The
registry's: monotonic counters, histogram bucket math whose percentile
summaries bracket the true order statistics, and no lost updates under a
concurrent hammer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    exponential_buckets,
    linear_buckets,
    read_spans_jsonl,
)
from repro.obs.report import format_metrics_snapshot, format_span_tree


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].span_id == outer.span_id
        assert spans["inner"].span_id == inner.span_id

    def test_children_finish_first_but_nest_correctly(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["c"].parent_id == by_name["b"].span_id
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["d"].parent_id == by_name["a"].span_id
        # ring order is completion order: children before parents
        assert [span.name for span in tracer.spans()] == ["c", "b", "d", "a"]

    def test_timing_is_monotonic_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        by_name = {span.name: span for span in tracer.spans()}
        inner, outer = by_name["inner"], by_name["outer"]
        assert inner.duration_s >= 0.002
        assert outer.duration_s >= inner.duration_s
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            span.set(result="ok")
        recorded = tracer.spans("work")[0]
        assert recorded.attrs == {"size": 3, "result": "ok"}

    def test_record_with_explicit_parent(self):
        tracer = Tracer()
        root = tracer.record("request", 1.0, 3.0, phase="all")
        child = tracer.record("decode", 2.0, 3.0, parent_id=root)
        assert child is not None and root is not None
        spans = tracer.spans()
        assert spans[1].parent_id == root
        assert spans[0].duration_s == pytest.approx(2.0)

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(label):
            with tracer.span(f"outer-{label}"):
                barrier.wait()
                with tracer.span(f"inner-{label}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_name = {span.name: span for span in tracer.spans()}
        for label in range(2):
            assert by_name[f"inner-{label}"].parent_id == by_name[f"outer-{label}"].span_id


class TestTracerDisabled:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("invisible") as span:
            span.set(anything="goes")
        assert tracer.record("also-invisible", 0.0, 1.0) is None
        assert tracer.spans() == []
        assert tracer.total_recorded == 0

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled

    def test_noop_span_is_shared(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")


class TestRingBuffer:
    def test_eviction_keeps_newest(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.record(f"span-{index}", float(index), float(index) + 0.5)
        names = [span.name for span in tracer.spans()]
        assert names == ["span-6", "span-7", "span-8", "span-9"]
        assert len(tracer) == 4
        assert tracer.total_recorded == 10

    def test_clear_preserves_lifetime_counter(self):
        tracer = Tracer(capacity=8)
        for index in range(3):
            tracer.record(f"s{index}", 0.0, 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.total_recorded == 3
        tracer.record("after", 0.0, 1.0)
        assert tracer.total_recorded == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestJsonlRoundTrip:
    def test_export_and_load(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", request=1):
            with tracer.span("inner"):
                pass
        tracer.record("retro", 5.0, 6.0, stop_reason="max_tokens")
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(path)
        assert written == 3
        loaded, skipped = read_spans_jsonl(path)
        assert loaded == tracer.spans() and skipped == 0

    def test_span_dict_round_trip(self):
        span = Span("x", 1.0, 2.5, span_id=3, parent_id=1, attrs={"tokens": 4})
        assert Span.from_dict(span.to_dict()) == span

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"name": "a", "start_s": 0.0, "end_s": 1.0, "span_id": 1}\n\n'
        )
        loaded, _ = read_spans_jsonl(path)
        assert len(loaded) == 1
        assert loaded[0].attrs == {}


class TestCorruptSpanLines:
    """Regression: a dump truncated mid-write must not poison the load."""

    def export_three_spans(self, tmp_path):
        tracer = Tracer()
        for index in range(3):
            tracer.record(f"span-{index}", float(index), float(index) + 0.5)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        return path, tracer.spans()

    def test_truncated_trailing_line_skipped_and_counted(self, tmp_path):
        path, spans = self.export_three_spans(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 15])  # kill -9 mid final write
        loaded, skipped = read_spans_jsonl(path)
        assert loaded == spans[:2]
        assert skipped == 1

    def test_json_line_missing_span_fields_skipped(self, tmp_path):
        path, spans = self.export_three_spans(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"valid_json": "but not a span"}\n')
            handle.write('["a list, not an object"]\n')
        loaded, skipped = read_spans_jsonl(path)
        assert loaded == spans
        assert skipped == 2

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        path, _ = self.export_three_spans(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated')
        with pytest.raises(ObservabilityError, match="line 4"):
            read_spans_jsonl(path, strict=True)

    def test_clean_file_reports_zero_skipped(self, tmp_path):
        path, spans = self.export_three_spans(tmp_path)
        loaded, skipped = read_spans_jsonl(path)
        assert loaded == spans
        assert skipped == 0


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ObservabilityError):
            counter.inc(-1)
        assert counter.value == 6


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_bound(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 100.0):
            histogram.observe(value)
        counts = dict(histogram.bucket_counts())
        assert counts[1.0] == 2  # 0.5 and the exactly-on-bound 1.0
        assert counts[2.0] == 2  # 1.5, 2.0
        assert counts[4.0] == 1  # 3.0
        assert counts[float("inf")] == 1  # 100.0 overflows
        assert histogram.count == 6
        assert histogram.total == pytest.approx(108.0)

    def test_summary_on_empty(self):
        summary = Histogram("h", buckets=(1.0,)).summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_single_value_collapses_percentiles(self):
        histogram = Histogram("h", buckets=linear_buckets(1, 1, 10))
        for _ in range(50):
            histogram.observe(3.5)
        summary = histogram.summary()
        assert summary["min"] == summary["max"] == 3.5
        # interpolation is clamped to the observed range
        assert summary["p50"] == pytest.approx(3.5)
        assert summary["p99"] == pytest.approx(3.5)
        assert summary["mean"] == pytest.approx(3.5)

    def test_percentiles_bracket_order_statistics(self):
        histogram = Histogram("h", buckets=linear_buckets(10, 10, 10))
        for value in range(1, 101):  # 1..100 uniformly
            histogram.observe(float(value))
        # The true p50 is 50; the estimate must stay within its bucket.
        assert 40.0 <= histogram.percentile(50) <= 50.0
        assert 80.0 <= histogram.percentile(90) <= 90.0
        assert 90.0 <= histogram.percentile(99) <= 100.0
        # extremes are clamped to the observed range
        assert 1.0 <= histogram.percentile(0) <= 10.0
        assert 90.0 <= histogram.percentile(100) <= 100.0
        with pytest.raises(ObservabilityError):
            histogram.percentile(101)

    def test_bucket_helpers(self):
        assert exponential_buckets(1, 2, 3) == (1, 2, 4)
        assert linear_buckets(0, 5, 3) == (0, 5, 10)
        with pytest.raises(ObservabilityError):
            exponential_buckets(0, 2, 3)
        with pytest.raises(ObservabilityError):
            linear_buckets(0, 0, 3)

    def test_bucket_helpers_single_bucket(self):
        assert exponential_buckets(0.5, 2, 1) == (0.5,)
        assert linear_buckets(3, 1, 1) == (3,)
        histogram = Histogram("h", buckets=exponential_buckets(1.0, 2, 1))
        histogram.observe(0.5)
        histogram.observe(2.0)
        counts = dict(histogram.bucket_counts())
        assert counts[1.0] == 1 and counts[float("inf")] == 1

    def test_bucket_helpers_reject_inverted_bounds(self):
        # factor <= 1 / width <= 0 would make bounds non-increasing
        with pytest.raises(ObservabilityError):
            exponential_buckets(1, 1, 3)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1, 0.5, 3)
        with pytest.raises(ObservabilityError):
            linear_buckets(10, -5, 3)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1, 2, 0)
        with pytest.raises(ObservabilityError):
            linear_buckets(0, 1, 0)

    def test_observations_beyond_last_edge_land_in_overflow(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in (2.001, 50.0, 1e12):
            histogram.observe(value)
        counts = dict(histogram.bucket_counts())
        assert counts[float("inf")] == 3
        assert counts[1.0] == 0 and counts[2.0] == 0
        assert histogram.count == 3
        # percentile estimates clamp to the observed range, not +inf
        assert histogram.percentile(99) <= 1e12
        summary = histogram.summary()
        assert summary["max"] == 1e12
        assert summary["p50"] <= summary["max"]

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("inflight").set(2)
        registry.histogram("latency", buckets=(1.0, 2.0)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"requests": 3}
        assert snapshot["gauges"] == {"inflight": 2}
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert sorted(registry.instruments()) == ["inflight", "latency", "requests"]

    def test_concurrent_hammer_loses_no_updates(self):
        registry = MetricsRegistry()
        per_thread = 500
        threads = 8

        def hammer(index):
            counter = registry.counter("hits")
            histogram = registry.histogram("lat", buckets=(0.5, 1.0, 2.0))
            gauge = registry.gauge("busy")
            for i in range(per_thread):
                counter.inc()
                histogram.observe((index + i) % 3 * 0.7)
                gauge.inc()
                gauge.dec()

        workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("hits").value == threads * per_thread
        assert registry.histogram("lat").count == threads * per_thread
        assert registry.gauge("busy").value == 0


class TestObservability:
    def test_default_is_metrics_on_tracing_off(self):
        obs = Observability()
        assert not obs.tracer.enabled
        obs.metrics.counter("c").inc()
        assert obs.metrics.snapshot()["counters"] == {"c": 1}

    def test_with_tracing(self):
        obs = Observability.with_tracing(capacity=16)
        assert obs.tracer.enabled
        with obs.tracer.span("x"):
            pass
        assert len(obs.tracer.spans()) == 1

    def test_attach_tracer_swaps_in_place(self):
        obs = Observability()
        tracer = Tracer()
        obs.attach_tracer(tracer)
        assert obs.tracer is tracer
        assert obs.tracer.enabled


class TestReportRendering:
    def test_metrics_tables(self):
        registry = MetricsRegistry()
        registry.counter("serving.requests").inc(2)
        registry.gauge("serving.inflight").set(1)
        registry.histogram("serving.completions_s", buckets=(0.1, 1.0)).observe(0.05)
        text = format_metrics_snapshot(registry.snapshot())
        assert "serving.requests" in text
        assert "Histograms" in text
        assert "p99" in text

    def test_empty_snapshot(self):
        assert "no metrics" in format_metrics_snapshot({})

    def test_span_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        text = format_span_tree(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_span_tree_orphans_become_roots(self):
        spans = [Span("orphan", 0.0, 1.0, span_id=5, parent_id=99)]
        assert format_span_tree(spans).startswith("orphan")

    def test_empty_span_tree(self):
        assert "no spans" in format_span_tree([])
