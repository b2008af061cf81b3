"""Cross-process trace stitching, telemetry endpoints and SLOs in the fleet.

The end-to-end claims of the distributed-observability tier:

* a traced seeded chaos run merges every collected worker span into the
  Chrome trace exactly once, with each traced router span parenting its
  worker spans across the process boundary (joined on span *references*,
  not process-local ids);
* the merged trace and the SLO report are pure functions of the seed —
  two replays serialize byte-identically;
* the service's HTTP surface carries the contract: request headers adopt
  the context, the response echoes the trace id, and ``/v1/telemetry``
  drains spans exactly once.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.faults import FakeClock, use
from repro.fleet import build_chaos_fleet, run_fleet_chaos
from repro.fleet.router import FleetRouter
from repro.obs import Observability
from repro.obs.distributed import PARENT_SPAN_HEADER, TRACE_ID_HEADER, TraceContext
from repro.serving.client import PredictionClient
from repro.serving.service import PredictionService, RestServer
from tests.test_fleet import FakeWorker

pytestmark = [pytest.mark.faults, pytest.mark.fleet]


@pytest.fixture(scope="module")
def traced_run() -> dict:
    return run_fleet_chaos(seed=1)


def _span_events(trace: dict) -> list[dict]:
    return [event for event in trace["traceEvents"] if event["ph"] == "X"]


class TestChaosTraceStitching:
    def test_every_collected_worker_span_appears_exactly_once(self, traced_run):
        trace = traced_run["chrome_trace"]
        collected = traced_run["collector"]["spans_collected"]
        names = {
            event["pid"]: event["args"]["name"].removeprefix("worker ")
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        per_replica: dict[str, list] = {}
        for event in _span_events(trace):
            if event["pid"] != 0:
                per_replica.setdefault(names[event["pid"]], []).append(
                    event["args"]["span_id"]
                )
        assert {
            replica: len(ids) for replica, ids in per_replica.items()
        } == collected, "merged trace dropped or duplicated worker spans"
        for replica, ids in per_replica.items():
            assert len(ids) == len(set(ids)), f"duplicate span ids on {replica}"

    def test_router_spans_parent_worker_spans(self, traced_run):
        events = _span_events(traced_run["chrome_trace"])
        router_refs = {
            event["args"]["span_ref"]
            for event in events
            if event["pid"] == 0 and "span_ref" in event["args"]
        }
        worker_parents = {
            event["args"]["parent_span"]
            for event in events
            if event["pid"] != 0 and "parent_span" in event["args"]
        }
        assert router_refs, "no router span carried a span_ref"
        assert worker_parents, "no worker span adopted a parent reference"
        assert worker_parents <= router_refs
        # every parent link belongs to the trace id it claims
        for event in events:
            parent = event["args"].get("parent_span")
            if parent is not None:
                assert parent == f"{event['args']['trace_id']}/r"

    def test_flow_arrows_bridge_the_processes(self, traced_run):
        events = traced_run["chrome_trace"]["traceEvents"]
        starts = {event["id"] for event in events if event["ph"] == "s"}
        finishes = {event["id"] for event in events if event["ph"] == "f"}
        assert finishes <= starts, "flow finish without a matching start"
        assert starts, "no flow arrows emitted"

    def test_replay_is_byte_identical(self, traced_run):
        replay = run_fleet_chaos(seed=1)
        assert replay["chrome_trace_json"] == traced_run["chrome_trace_json"]
        assert replay["slo_json"] == traced_run["slo_json"]
        assert replay["log"] == traced_run["log"]

    def test_slo_report_covers_the_declared_objectives(self, traced_run):
        report = traced_run["slo"]
        assert report["total_observed"] == 24
        assert len(report["slos"]) >= 3
        assert {slo["signal"] for slo in report["slos"]} >= {"latency", "shed", "error"}
        # summary event carries the verdict so the JSONL log tells the story
        summary = traced_run["events"][-1]
        assert summary["slos_met"] == report["all_met"]
        assert summary["slos_alerting"] == report["any_alerting"]

    def test_untraced_run_omits_observability_keys(self):
        result = run_fleet_chaos(seed=1, tracing=False, slo_specs=())
        assert "chrome_trace" not in result
        assert "slo" not in result


class TestRouterTelemetry:
    def test_collect_telemetry_force_drains_all_live_workers(self):
        with use(FakeClock()):
            router, _ = build_chaos_fleet(0, 2, tracing=True)
            router.predict("- name: install nginx\n", max_new_tokens=4)
            stats = router.collect_telemetry()
            assert stats["replicas"]  # drained without a heartbeat tick
            assert sum(stats["spans_collected"].values()) > 0

    def test_trace_ids_are_minted_per_request(self):
        with use(FakeClock()):
            router, _ = build_chaos_fleet(0, 2, tracing=True)
            first = router.predict("- name: a\n", max_new_tokens=4)
            second = router.predict("- name: b\n", max_new_tokens=4)
            assert first["trace_id"] == "t-00000001"
            assert second["trace_id"] == "t-00000002"

    def test_inbound_context_adopted_end_to_end(self):
        # a client that already traces keeps its id through router AND worker
        with use(FakeClock()):
            router, _ = build_chaos_fleet(0, 2, tracing=True)
            inbound = TraceContext(trace_id="client-7", parent_span="client-7/c")
            payload = router.predict(
                "- name: install nginx\n", max_new_tokens=4, trace_context=inbound
            )
            assert payload["trace_id"] == "client-7"
            (root,) = router.obs.tracer.spans("fleet.predict")
            assert root.attrs["trace_id"] == "client-7"
            assert root.attrs["parent_span"] == "client-7/c"  # client parents the router
            router.collect_telemetry()
            worker_roots = [
                span
                for span in router.collector.spans()
                if span.parent_id is None and "trace_id" in span.attrs
            ]
            assert worker_roots
            for span in worker_roots:
                assert span.attrs["trace_id"] == "client-7"
                assert span.attrs["parent_span"] == "client-7/r"  # router parents the worker


class _NoneStatsWorker(FakeWorker):
    """A degenerate worker whose stats carry nulls where numbers belong."""

    def __init__(self):
        super().__init__("w0")

    def stats(self):
        return {
            "requests": None,
            "engine": {
                "decode_tokens": None,
                "kv_arena": None,
                "prefix_cache": {"hits": None, "misses": None, "tokens_reused": None,
                                 "tokens_missed": None},
            },
        }


class TestAggregateStatsHardening:
    def test_null_worker_stats_do_not_crash_aggregation(self):
        router = FleetRouter([_NoneStatsWorker()])
        aggregate = router.stats()["aggregate"]
        assert aggregate["decode_tokens"] == 0
        assert aggregate["prefix_cache"]["token_reuse_rate"] == 0.0
        assert aggregate["prefix_cache"]["hit_rate"] == 0.0


class TestServiceTelemetryHttp:
    def test_headers_adopt_context_and_echo_trace_id(self, make_engine):
        service = PredictionService(make_engine(obs=Observability.with_tracing()))
        with RestServer(service) as server:
            body = json.dumps({"prompt": "- name: install nginx\n"}).encode()
            request = urllib.request.Request(
                server.url + "/v1/completions",
                data=body,
                headers={
                    "Content-Type": "application/json",
                    TRACE_ID_HEADER: "t-00000042",
                    PARENT_SPAN_HEADER: "t-00000042/r",
                },
            )
            with urllib.request.urlopen(request) as response:
                assert response.headers[TRACE_ID_HEADER] == "t-00000042"
                payload = json.loads(response.read())
        assert payload["trace_id"] == "t-00000042"
        (root,) = service.obs.tracer.spans("serving.predict")
        assert root.attrs["trace_id"] == "t-00000042"
        assert root.attrs["parent_span"] == "t-00000042/r"

    def test_untraced_request_echoes_nothing(self, make_engine):
        service = PredictionService(make_engine(obs=Observability.with_tracing()))
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            payload = client.predict("- name: install nginx\n")
        assert "trace_id" not in payload
        (root,) = service.obs.tracer.spans("serving.predict")
        assert "trace_id" not in root.attrs

    def test_telemetry_endpoint_drains_exactly_once(self, make_engine):
        service = PredictionService(make_engine(obs=Observability.with_tracing()))
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            client.predict("- name: install nginx\n")
            first = client.telemetry()
            second = client.telemetry()
        names = [span["name"] for span in first["spans"]]
        assert names.count("serving.predict") == names.count("engine.request") == 1
        assert second["spans"] == []
        assert set(first) == {"spans"}  # a span drain: metrics stay behind /v1/metrics
