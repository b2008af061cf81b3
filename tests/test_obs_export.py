"""Tests for repro.obs.export (Chrome trace JSON, Prometheus exposition).

Acceptance-pinned behaviour: the Chrome trace is valid JSON whose
intervals carry ``ph``/``ts``/``dur``/``name`` and share one coherent
timeline across tracer spans and profiled ops; the Prometheus exposition
parses line-by-line (``# TYPE`` headers, escaped label values) and
round-trips through :func:`parse_prometheus`.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.nn.layers import Linear
from repro.nn.parameter import numpy_rng
from repro.obs import MetricsRegistry, OpProfiler, Tracer
from repro.obs.export import (
    OP_TID,
    SPAN_TID,
    chrome_trace_events,
    escape_label_value,
    export_chrome_trace,
    format_sample,
    prometheus_exposition,
    sanitize_metric_name,
)
from repro.obs.profile import OpEvent
from repro.obs.trace import Span
from tests.prometheus import parse_prometheus, unescape_label_value


class TestChromeTrace:
    def test_intervals_have_required_fields(self, tmp_path):
        spans = [Span("request", 1.0, 2.0, span_id=1, attrs={"tokens": 3})]
        ops = [OpEvent("Linear.forward", 1.1, 1.4, flops=64.0, bytes_moved=32.0)]
        path = tmp_path / "trace.json"
        written = export_chrome_trace(path, spans, ops)
        assert written == 2
        payload = json.loads(path.read_text())  # must be valid JSON
        intervals = [event for event in payload["traceEvents"] if event["ph"] == "X"]
        assert len(intervals) == 2
        for event in intervals:
            assert {"ph", "ts", "dur", "name", "pid", "tid"} <= set(event)

    def test_spans_and_ops_share_one_timeline(self):
        spans = [Span("decode", 10.0, 10.5, span_id=1)]
        ops = [OpEvent("Linear.forward", 10.1, 10.2, flops=1.0, bytes_moved=1.0)]
        events = chrome_trace_events(spans, ops)
        by_name = {event["name"]: event for event in events if event["ph"] == "X"}
        span, op = by_name["decode"], by_name["Linear.forward"]
        # same pid, perf_counter seconds -> microseconds on both lanes
        assert span["pid"] == op["pid"] == 0
        assert span["tid"] == SPAN_TID and op["tid"] == OP_TID
        assert span["ts"] == pytest.approx(10.0 * 1e6)
        assert op["ts"] == pytest.approx(10.1 * 1e6)
        assert span["ts"] <= op["ts"] <= op["ts"] + op["dur"] <= span["ts"] + span["dur"]
        assert op["args"] == {"flops": 1.0, "bytes_moved": 1.0}

    def test_metadata_names_process_and_lanes(self):
        events = chrome_trace_events([], [], process_name="bench")
        metadata = [event for event in events if event["ph"] == "M"]
        names = {event["args"]["name"] for event in metadata}
        assert names == {"bench", "spans", "ops"}

    def test_live_profile_exports_coherent_trace(self, tmp_path):
        tracer = Tracer()
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler().attach(layer)
        with tracer.span("step"):
            layer.forward(np.ones((1, 4), dtype=np.float32), training=False)
        profiler.detach()
        path = tmp_path / "trace.json"
        export_chrome_trace(path, tracer.spans(), profiler.events())
        payload = json.loads(path.read_text())
        by_name = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        step, op = by_name["step"], by_name["Linear.forward"]
        # the op interval actually happened inside the span interval
        assert step["ts"] <= op["ts"]
        assert op["ts"] + op["dur"] <= step["ts"] + step["dur"] + 1.0  # 1us slack


class TestLabelEscaping:
    @pytest.mark.parametrize(
        "value",
        ['plain', 'with "quotes"', "back\\slash", "new\nline", 'all\\"of\nit\\'],
    )
    def test_escape_round_trip(self, value):
        assert unescape_label_value(escape_label_value(value)) == value

    def test_escaped_sample_parses_back(self):
        line = format_sample("m", {"path": 'a\\b "c"\nd'}, 1.0)
        parsed = parse_prometheus("# TYPE m gauge\n" + line + "\n")
        ((_, labels, value),) = parsed["m"]["samples"]
        assert labels == {"path": 'a\\b "c"\nd'}
        assert value == 1.0

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("engine.decode_s") == "engine_decode_s"
        assert sanitize_metric_name("9lives") == "_9lives"


class TestPrometheusExposition:
    def build_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("engine.requests").inc(3)
        registry.gauge("training.learning_rate").set(0.001)
        histogram = registry.histogram("engine.decode_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        return registry

    def test_round_trip_parses_every_line(self):
        text = prometheus_exposition(self.build_registry())
        assert text.endswith("\n")
        parsed = parse_prometheus(text)  # raises on any unparseable line
        assert parsed["engine_requests_total"]["type"] == "counter"
        assert parsed["engine_requests_total"]["samples"] == [
            ("engine_requests_total", {}, 3.0)
        ]
        assert parsed["training_learning_rate"]["type"] == "gauge"
        assert parsed["engine_decode_s"]["type"] == "histogram"

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = prometheus_exposition(self.build_registry())
        parsed = parse_prometheus(text)
        samples = parsed["engine_decode_s"]["samples"]
        buckets = [s for s in samples if s[0] == "engine_decode_s_bucket"]
        uppers = [s[1]["le"] for s in buckets]
        counts = [s[2] for s in buckets]
        assert uppers == ["0.1", "1", "+Inf"]
        assert counts == [1.0, 2.0, 3.0]  # cumulative, not per-bucket
        by_name = {s[0]: s[2] for s in samples}
        assert by_name["engine_decode_s_count"] == 3.0
        assert by_name["engine_decode_s_sum"] == pytest.approx(5.55)

    def test_type_headers_present(self):
        text = prometheus_exposition(self.build_registry())
        assert "# TYPE engine_requests_total counter" in text
        assert "# TYPE training_learning_rate gauge" in text
        assert "# TYPE engine_decode_s histogram" in text

    def test_empty_registry_exposes_nothing(self):
        assert prometheus_exposition(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}

    def test_inf_values_round_trip(self):
        parsed = parse_prometheus('m_bucket{le="+Inf"} 4\n')
        ((_, labels, _),) = parsed["m_bucket"]["samples"]
        assert labels == {"le": "+Inf"}
        assert parse_prometheus("m -Inf\n")["m"]["samples"][0][2] == -math.inf

    def test_garbage_line_raises(self):
        with pytest.raises(ObservabilityError, match="line 2"):
            parse_prometheus("m 1\nnot a sample line at all !!!\n")
