"""Fleet-wide distributed tracing and telemetry aggregation.

PR 6 split serving into a :class:`~repro.fleet.router.FleetRouter` plus N
workers, which broke observability at the process boundary: every replica
records its own spans/metrics/profiles and nobody can see a request end
to end.  This module closes the gap with two pieces:

**Trace-context propagation.**  The router mints one
:class:`TraceContext` per fleet request — a fleet-unique ``trace_id``
plus a *span reference* naming the router's ``fleet.predict`` span — and
carries it to workers: over HTTP headers (:data:`TRACE_ID_HEADER`,
:data:`PARENT_SPAN_HEADER`) for :class:`~repro.fleet.worker.ProcessWorker`
children, as a keyword argument for in-process workers.  The worker's
service adopts the context via :meth:`~repro.obs.trace.Tracer.activate`,
so every root span it records (the engine's ``engine.request`` trees,
the service's ``serving.predict``) is stamped with ``trace_id`` /
``parent_span`` attrs.  Span *references* are strings (``"<trace_id>/r"``
for the router span) because numeric span ids are only unique within one
tracer; the stitcher joins on the references, not the ids.

**Telemetry collection.**  Workers expose ``GET /v1/telemetry``
(:meth:`PredictionService.telemetry`) returning a *drain*: the buffered
spans, cleared on read.  Metrics stay behind the scrape endpoint,
``GET /v1/metrics?format=prometheus``.  A :class:`FleetCollector` on the
router polls the drain from the heartbeat tick — driven by
:mod:`repro.faults.clock`, so seeded chaos runs collect
deterministically — and accumulates per-replica spans, from
which :func:`fleet_chrome_trace` renders one **Chrome/Perfetto trace**
with a track (pid) per replica and flow arrows from each router span to
the worker spans it parents.

Spans drained from a replica that later dies stay in the collector;
spans the replica recorded *after* its last poll die with it — the same
loss model as any pull-based telemetry system.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.export import SPAN_TID, span_event
from repro.obs.trace import Span

#: HTTP header carrying the fleet-unique trace id.
TRACE_ID_HEADER = "X-Repro-Trace-Id"
#: HTTP header carrying the upstream span reference (``"<trace_id>/r"``).
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"


@dataclass(frozen=True)
class TraceContext:
    """A trace id plus the upstream span reference, as crossed a boundary.

    ``parent_span`` is a *reference string*, not a span id — ids are only
    unique within one tracer, so cross-process parent links are joined on
    references (see :func:`router_span_ref`).
    """

    trace_id: str
    parent_span: str | None = None

    def to_headers(self) -> dict[str, str]:
        """Render as the HTTP headers a ProcessWorker call carries."""
        headers = {TRACE_ID_HEADER: self.trace_id}
        if self.parent_span is not None:
            headers[PARENT_SPAN_HEADER] = self.parent_span
        return headers

    @classmethod
    def from_headers(cls, headers) -> "TraceContext | None":
        """Recover a context from a headers mapping; None when absent.

        ``headers`` is anything with a ``.get`` (an
        ``http.server`` ``self.headers``, or a plain dict).
        """
        trace_id = headers.get(TRACE_ID_HEADER)
        if not trace_id:
            return None
        return cls(trace_id=trace_id, parent_span=headers.get(PARENT_SPAN_HEADER) or None)


def adopt(tracer, context: TraceContext | None):
    """``tracer.activate`` for an optional context: a no-op block without one."""
    if context is None:
        return nullcontext()
    return tracer.activate(context.trace_id, context.parent_span)


def router_span_ref(trace_id: str) -> str:
    """The reference naming the router's root span for ``trace_id``."""
    return f"{trace_id}/r"


class TraceIdAllocator:
    """Deterministic trace-id mint: ``<prefix>-00000001``, ``-00000002``...

    A counter, not a UUID, so seeded chaos runs assign identical ids on
    replay; the prefix keeps ids from concurrent routers distinct.
    """

    def __init__(self, prefix: str = "t"):
        if not prefix:
            raise ObservabilityError("trace-id prefix must be non-empty")
        self.prefix = prefix
        self._next = 0

    def allocate(self) -> str:
        self._next += 1
        return f"{self.prefix}-{self._next:08d}"


# -- telemetry collection ------------------------------------------------------


class FleetCollector:
    """Accumulates per-replica telemetry drains on the router.

    :meth:`poll` is called from the router's heartbeat tick for every
    live worker; each call drains the worker's span buffer, so a span is
    collected exactly once.  All state is keyed by replica name; a replica
    that respawns keeps appending to the same span history.
    """

    def __init__(self) -> None:
        self._spans: dict[str, list[Span]] = {}
        self._polled: set[str] = set()  # replicas with a successful poll
        self.polls = 0
        self.poll_errors = 0

    # -- ingestion -----------------------------------------------------------

    def poll(self, replica: str, worker) -> bool:
        """Drain one worker's telemetry; False if the worker was unreachable.

        ``worker`` is anything with a ``telemetry()`` method returning the
        ``GET /v1/telemetry`` payload.  Unreachable workers are counted,
        never raised — telemetry must not turn a flaky replica into a
        router failure.
        """
        self.polls += 1
        try:
            payload = worker.telemetry()
        except Exception:
            self.poll_errors += 1
            return False
        self.ingest(replica, payload)
        return True

    def ingest(self, replica: str, payload: dict) -> None:
        """Fold one ``/v1/telemetry`` payload into the accumulated state."""
        self._polled.add(replica)
        for record in payload.get("spans") or []:
            self._spans.setdefault(replica, []).append(Span.from_dict(record))

    # -- reading -------------------------------------------------------------

    def replicas(self) -> list[str]:
        """Replica names polled successfully at least once, sorted."""
        return sorted(self._polled)

    def spans(self, replica: str | None = None) -> list[Span]:
        """Collected spans for one replica, or all replicas (sorted by name)."""
        if replica is not None:
            return list(self._spans.get(replica, []))
        merged: list[Span] = []
        for name in sorted(self._spans):
            merged.extend(self._spans[name])
        return merged

    def stats(self) -> dict:
        """Collector health: poll counts and per-replica span tallies."""
        return {
            "polls": self.polls,
            "poll_errors": self.poll_errors,
            "replicas": self.replicas(),
            "spans_collected": {name: len(spans) for name, spans in sorted(self._spans.items())},
        }


# -- Chrome trace stitching ----------------------------------------------------


def _process_events(pid: int, process_name: str, spans: list[Span]) -> list[dict]:
    events: list[dict] = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
        {"ph": "M", "pid": pid, "tid": SPAN_TID, "name": "thread_name",
         "args": {"name": "spans"}},
    ]
    events.extend(span_event(span, pid) for span in spans)
    return events


def fleet_chrome_trace(
    router_spans: list[Span],
    worker_spans: dict[str, list[Span]],
    router_name: str = "router",
) -> dict:
    """Stitch router + per-replica spans onto one Perfetto timeline.

    The router renders as pid 0; each replica (sorted by name) gets the
    next pid, so the fleet reads as one multi-process trace.  All
    processes share the fleet clock (the chaos harness drives one
    FakeClock; production processes share ``perf_counter`` closely
    enough for eyeballs), so spans line up without offset correction.

    Cross-process parenting travels in ``args``: a router span whose
    attrs carry a ``trace_id`` additionally gets a ``span_ref``
    (:func:`router_span_ref`), and worker root spans carry matching
    ``trace_id`` / ``parent_span`` attrs.  A flow arrow (``ph`` ``s`` /
    ``f``) is drawn per such pair so Perfetto renders the handoff.
    """
    events: list[dict] = _process_events(0, router_name, [])
    # Router spans, with span_ref attached to traced roots and a flow
    # start per trace id.
    for span in router_spans:
        trace_id = span.attrs.get("trace_id")
        event = span_event(span)
        if trace_id is not None and span.parent_id is None:
            event["args"].setdefault("span_ref", router_span_ref(trace_id))
            events.append(event)
            events.append(
                {"ph": "s", "cat": "trace", "name": "trace", "id": trace_id,
                 "pid": 0, "tid": SPAN_TID, "ts": span.start_s * 1e6}
            )
        else:
            events.append(event)
    for pid, replica in enumerate(sorted(worker_spans), start=1):
        spans = worker_spans[replica]
        events.extend(_process_events(pid, f"worker {replica}", spans))
        for span in spans:
            if span.parent_id is None and span.attrs.get("parent_span"):
                events.append(
                    {"ph": "f", "bp": "e", "cat": "trace", "name": "trace",
                     "id": span.attrs["trace_id"], "pid": pid, "tid": SPAN_TID,
                     "ts": span.start_s * 1e6}
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_fleet_chrome_trace(path: str | Path, trace: dict) -> int:
    """Write a stitched trace with deterministic key order; returns span count."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
    return sum(1 for event in trace["traceEvents"] if event["ph"] == "X")


__all__ = [
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "TraceContext",
    "TraceIdAllocator",
    "router_span_ref",
    "FleetCollector",
    "fleet_chrome_trace",
    "write_fleet_chrome_trace",
]
