"""Observability: tracing, metrics and op profiling.

The operational substrate for the serving stack — the paper's system runs
as a latency-sensitive editor service, and you cannot operate (or
optimise) one without knowing where time goes.  Three primitives:

* :mod:`repro.obs.trace` — a span tracer with context-manager/decorator
  API, parent/child nesting, a bounded ring buffer and JSONL export;
* :mod:`repro.obs.metrics` — thread-safe counters, gauges and
  fixed-bucket histograms with percentile summaries;
* :mod:`repro.obs.profile` — an op-level profiler hooking every layer's
  forward/backward with analytic FLOPs, bytes-moved and roofline
  accounting (achieved GFLOP/s, arithmetic intensity).

:mod:`repro.obs.export` turns all of it into standard formats: Chrome
trace-event JSON (Perfetto-loadable span + op timelines) and Prometheus
text exposition (served via ``GET /v1/metrics?format=prometheus``).
:func:`repro.obs.audit` checks the conservation laws a quiescent
``stats()`` tree must satisfy; every chaos run ends with it.

:class:`Observability` bundles a tracer, a metrics registry and a
profiler, and is what instrumented components
(:class:`~repro.engine.engine.InferenceEngine`,
:class:`~repro.serving.service.PredictionService`,
:class:`~repro.fleet.router.FleetRouter`) accept.  The default posture is *metrics on, tracing and profiling off*:
metrics are cheap enough to always collect, while span tracing and op
profiling are opt-in via :meth:`Observability.with_tracing` /
:meth:`Observability.attach_profiler` (or the components'
``attach_tracer`` / ``attach_profiler`` hooks), and must never change
what the model generates.

Surfaced through ``GET /v1/metrics``, the extended ``/v1/stats`` and the
``repro obs`` / ``repro profile`` CLI subcommands (see
:mod:`repro.obs.report`).
"""

from __future__ import annotations

from repro.obs.audit import audit
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
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    linear_buckets,
)
from repro.obs.profile import NULL_PROFILER, OpEvent, OpProfiler, OpStat
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    DEFAULT_SLOS,
    BurnWindow,
    SloMonitor,
    SloSpec,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer, read_spans_jsonl


class Observability:
    """A tracer, metrics registry and profiler shared across a stack.

    Components cache instrument handles from :attr:`metrics` at
    construction time, so the registry is fixed for the object's lifetime;
    the tracer and profiler, by contrast, may be swapped in later via
    :meth:`attach_tracer` / :meth:`attach_profiler` (that is what makes
    tracing and profiling default-off cheap — the slots hold disabled
    instances until someone attaches real ones).
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: OpProfiler | None = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    @classmethod
    def with_tracing(cls, capacity: int = 4096) -> "Observability":
        """An Observability whose tracer is enabled from the start."""
        return cls(tracer=Tracer(capacity=capacity))

    def attach_tracer(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def attach_profiler(self, profiler: OpProfiler) -> None:
        """Adopt ``profiler``; the owner of the layer tree attaches it."""
        self.profiler = profiler


__all__ = [
    "Observability",
    "audit",
    "Tracer",
    "Span",
    "NULL_TRACER",
    "read_spans_jsonl",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "exponential_buckets",
    "linear_buckets",
    "OpProfiler",
    "OpStat",
    "OpEvent",
    "NULL_PROFILER",
    "TraceContext",
    "TraceIdAllocator",
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "FleetCollector",
    "fleet_chrome_trace",
    "write_fleet_chrome_trace",
    "router_span_ref",
    "SloSpec",
    "SloMonitor",
    "BurnWindow",
    "DEFAULT_SLOS",
    "DEFAULT_BURN_WINDOWS",
]
