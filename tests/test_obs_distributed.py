"""Distributed tracing and telemetry aggregation (repro.obs.distributed).

Covers the pieces the fleet stitches together: trace-context header
round-trips, deterministic trace-id minting, remote-context adoption on
the tracer, the collector's exactly-once span drain and replica-labelled
Prometheus merge, and the multi-process Chrome trace — plus property
tests that the Prometheus exposition round-trips hostile label values
(backslashes, quotes, newlines, and the ``\\r`` / ``\\x0b`` / U+2028
characters ``str.splitlines`` would treat as line boundaries).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import ObservabilityError
from repro.obs import Tracer
from repro.obs.distributed import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    FleetCollector,
    TraceContext,
    TraceIdAllocator,
    fleet_chrome_trace,
    router_span_ref,
    write_fleet_chrome_trace,
)
from repro.obs.export import escape_label_value, format_sample
from tests.prometheus import parse_prometheus, unescape_label_value


class TestTraceContext:
    def test_headers_round_trip(self):
        context = TraceContext(trace_id="t-00000007", parent_span="t-00000007/r")
        assert TraceContext.from_headers(context.to_headers()) == context

    def test_parent_span_optional(self):
        context = TraceContext(trace_id="t-1")
        headers = context.to_headers()
        assert PARENT_SPAN_HEADER not in headers
        assert TraceContext.from_headers(headers) == context

    def test_absent_headers_give_none(self):
        assert TraceContext.from_headers({}) is None
        assert TraceContext.from_headers({PARENT_SPAN_HEADER: "x/r"}) is None

    def test_empty_parent_header_reads_as_none(self):
        headers = {TRACE_ID_HEADER: "t-1", PARENT_SPAN_HEADER: ""}
        assert TraceContext.from_headers(headers) == TraceContext(trace_id="t-1")


class TestTraceIdAllocator:
    def test_deterministic_sequence(self):
        first, second = TraceIdAllocator(), TraceIdAllocator()
        assert [first.allocate() for _ in range(3)] == [second.allocate() for _ in range(3)]
        assert first.allocate() == "t-00000004"

    def test_prefix_distinguishes_routers(self):
        assert TraceIdAllocator(prefix="r1").allocate() == "r1-00000001"

    def test_empty_prefix_rejected(self):
        with pytest.raises(ObservabilityError):
            TraceIdAllocator(prefix="")


class TestRemoteContextAdoption:
    def test_root_spans_stamped_while_active(self):
        tracer = Tracer()
        with tracer.activate("t-9", "t-9/r"):
            with tracer.span("serving.predict"):
                with tracer.span("child"):
                    pass
            tracer.record("engine.request", 0.0, 1.0)
        roots = [span for span in tracer.spans() if span.parent_id is None]
        assert {span.name for span in roots} == {"serving.predict", "engine.request"}
        for span in roots:
            assert span.attrs["trace_id"] == "t-9"
            assert span.attrs["parent_span"] == "t-9/r"
        (child,) = tracer.spans("child")
        assert "trace_id" not in child.attrs  # only roots cross the boundary

    def test_outside_context_nothing_stamped(self):
        tracer = Tracer()
        with tracer.span("serving.predict"):
            pass
        assert "trace_id" not in tracer.spans()[0].attrs

    def test_contexts_nest_and_restore(self):
        tracer = Tracer()
        with tracer.activate("outer"):
            with tracer.activate("inner"):
                with tracer.span("a"):
                    pass
            with tracer.span("b"):
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert spans["a"].attrs["trace_id"] == "inner"
        assert spans["b"].attrs["trace_id"] == "outer"

    def test_activate_on_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.activate("t-1", "t-1/r"):
            with tracer.span("a"):
                pass
        assert tracer.spans() == []

    def test_drain_is_exactly_once(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [span.name for span in drained] == ["a"]
        assert tracer.drain() == []
        assert tracer.total_recorded == 1  # lifetime counter survives the drain


class _FakeWorker:
    def __init__(self, payload=None, error=None):
        self.payload = payload or {"spans": []}
        self.error = error

    def telemetry(self):
        if self.error is not None:
            raise self.error
        return self.payload


def _span_payload(tracer: Tracer) -> dict:
    return {"spans": [span.to_dict() for span in tracer.drain()]}


class TestFleetCollector:
    def test_poll_drains_spans_exactly_once(self):
        tracer = Tracer()
        with tracer.span("engine.request"):
            pass

        class Worker:
            def telemetry(self):
                return {"spans": [span.to_dict() for span in tracer.drain()]}

        collector = FleetCollector()
        assert collector.poll("w0", Worker())
        assert collector.poll("w0", Worker())  # second poll drains nothing
        assert [span.name for span in collector.spans("w0")] == ["engine.request"]

    def test_unreachable_worker_counted_not_raised(self):
        collector = FleetCollector()
        assert not collector.poll("w0", _FakeWorker(error=ConnectionError("down")))
        assert collector.poll_errors == 1
        assert collector.stats()["polls"] == 1


class TestFleetChromeTrace:
    def _spans(self):
        router = Tracer()
        with router.span("fleet.predict") as span:
            span.set(trace_id="t-00000001", span_ref=router_span_ref("t-00000001"))
        worker = Tracer()
        with worker.activate("t-00000001", router_span_ref("t-00000001")):
            with worker.span("serving.predict"):
                pass
        return router.spans(), {"w0": worker.spans()}

    def test_pids_and_flow_events(self):
        trace = fleet_chrome_trace(*self._spans())
        events = trace["traceEvents"]
        assert {event["pid"] for event in events} == {0, 1}
        flows = [event for event in events if event["ph"] in ("s", "f")]
        assert [event["ph"] for event in flows] == ["s", "f"]
        assert all(event["id"] == "t-00000001" for event in flows)
        start, finish = flows
        assert start["pid"] == 0 and finish["pid"] == 1

    def test_replicas_sorted_onto_stable_pids(self):
        router_spans, worker_spans = self._spans()
        worker_spans["a0"] = worker_spans.pop("w0")
        worker_spans["z9"] = []
        trace = fleet_chrome_trace(router_spans, worker_spans)
        names = {
            event["pid"]: event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names == {0: "router", 1: "worker a0", 2: "worker z9"}

    def test_write_returns_span_count_and_is_canonical(self, tmp_path):
        trace = fleet_chrome_trace(*self._spans())
        path = tmp_path / "trace.json"
        count = write_fleet_chrome_trace(path, trace)
        assert count == 2
        assert json.loads(path.read_text()) == json.loads(json.dumps(trace, sort_keys=True))


# Label values the exposition format must carry verbatim: everything is
# legal except the three characters it escapes — and crucially the
# characters Python would mis-split on (\r, \x0b, \x1c..\x1e, \x85,
# U+2028, U+2029) must survive too.
label_values = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF),
    max_size=24,
)
label_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)


class TestPrometheusEscaping:
    @given(value=label_values)
    def test_escape_unescape_round_trip(self, value):
        assert unescape_label_value(escape_label_value(value)) == value

    @given(labels=st.dictionaries(label_names, label_values, min_size=1, max_size=3),
           value=st.integers(min_value=0, max_value=10**9))
    def test_sample_line_round_trips_through_parser(self, labels, value):
        exposition = "# TYPE m counter\n" + format_sample("m", labels, value) + "\n"
        parsed = parse_prometheus(exposition)
        ((name, parsed_labels, parsed_value),) = parsed["m"]["samples"]
        assert name == "m"
        assert parsed_labels == labels
        assert parsed_value == value

    @pytest.mark.parametrize("hostile", ["a\rb", "a\x0bb", "a\u2028b", "a\x85b", 'q"\\\nz'])
    def test_splitlines_hazards_survive_a_merge(self, hostile):
        # beside a replica label, through the exposition format and back
        line = format_sample("m", {"replica": "w0", "k": hostile}, 1.0)
        parsed = parse_prometheus(line + "\n")
        ((_, labels, _),) = parsed["m"]["samples"]
        assert labels == {"replica": "w0", "k": hostile}
