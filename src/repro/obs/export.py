"""Standard-format exporters for spans, profiled ops and metrics.

Two sinks, both plain text, both loadable by stock tooling:

* **Chrome trace-event JSON** (:func:`export_chrome_trace`) — the
  ``{"traceEvents": [...]}`` format read by ``chrome://tracing`` and
  Perfetto.  Tracer spans and profiler op events share one timeline:
  both record ``time.perf_counter()`` seconds, which become microsecond
  ``ts``/``dur`` complete events (``"ph": "X"``) on named threads of a
  single process.
* **Prometheus text exposition** (:func:`prometheus_exposition`) — the
  line protocol scraped by a Prometheus server: ``# TYPE`` headers, one
  sample per line, histograms expanded into cumulative ``_bucket{le=...}``
  series plus ``_sum``/``_count``.  Served live by
  ``GET /v1/metrics?format=prometheus``.

The tests read the exposition back with their own parser
(``tests/prometheus.py``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import OpEvent
from repro.obs.trace import Span

# -- Chrome trace-event JSON ---------------------------------------------------

#: Virtual thread ids: spans and ops render as two lanes of one process.
SPAN_TID = 1
OP_TID = 2


def span_event(span: Span, pid: int = 0) -> dict:
    """One tracer span as a Chrome complete event on process ``pid``'s span lane."""
    return {
        "name": span.name,
        "ph": "X",
        "cat": "span",
        "ts": span.start_s * 1e6,
        "dur": span.duration_s * 1e6,
        "pid": pid,
        "tid": SPAN_TID,
        "args": {"span_id": span.span_id, "parent_id": span.parent_id, **span.attrs},
    }


def chrome_trace_events(
    spans: list[Span] | None = None,
    op_events: list[OpEvent] | None = None,
    process_name: str = "repro",
) -> list[dict]:
    """Build the ``traceEvents`` list for spans and/or profiled ops.

    Every interval becomes a complete event (``"ph": "X"``) with ``ts``
    and ``dur`` in microseconds on the shared ``perf_counter`` clock, so
    a span and the ops that ran inside it line up in one timeline.
    Metadata events name the process and the two lanes.
    """
    events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
        {"ph": "M", "pid": 0, "tid": SPAN_TID, "name": "thread_name",
         "args": {"name": "spans"}},
        {"ph": "M", "pid": 0, "tid": OP_TID, "name": "thread_name",
         "args": {"name": "ops"}},
    ]
    events.extend(span_event(span) for span in spans or [])
    for event in op_events or []:
        events.append(
            {
                "name": event.name,
                "ph": "X",
                "cat": "op",
                "ts": event.start_s * 1e6,
                "dur": event.duration_s * 1e6,
                "pid": 0,
                "tid": OP_TID,
                "args": {"flops": event.flops, "bytes_moved": event.bytes_moved},
            }
        )
    return events


def export_chrome_trace(
    path: str | Path,
    spans: list[Span] | None = None,
    op_events: list[OpEvent] | None = None,
    process_name: str = "repro",
) -> int:
    """Write a Perfetto-loadable trace file; returns the interval count."""
    events = chrome_trace_events(spans, op_events, process_name)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return sum(1 for event in events if event["ph"] == "X")


# -- Prometheus text exposition ------------------------------------------------

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def sanitize_metric_name(name: str) -> str:
    """Map registry names (``engine.decode_s``) onto the Prometheus charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (\\, ", newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_sample(name: str, labels: dict[str, str] | None, value: float) -> str:
    """One exposition line: ``name{label="value",...} value``."""
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_number(value)}"
    return f"{name} {_format_number(value)}"


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """Render every registered instrument in Prometheus text format.

    Counters get the conventional ``_total`` suffix; histograms expand to
    cumulative ``_bucket`` series (ending in ``le="+Inf"``), ``_sum`` and
    ``_count``.  The output ends with a newline, as scrapers expect.
    """
    lines: list[str] = []
    for name, metric in sorted(registry.instruments().items()):
        base = sanitize_metric_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {base}_total counter")
            lines.append(format_sample(f"{base}_total", None, float(metric.value)))
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {base} gauge")
            lines.append(format_sample(base, None, float(metric.value)))
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for upper, count in metric.bucket_counts():
                cumulative += count
                lines.append(
                    format_sample(f"{base}_bucket", {"le": _format_number(upper)}, cumulative)
                )
            lines.append(format_sample(f"{base}_sum", None, metric.total))
            lines.append(format_sample(f"{base}_count", None, float(metric.count)))
        else:  # pragma: no cover - registry only holds the three kinds
            raise ObservabilityError(f"cannot export metric {name!r} of {type(metric).__name__}")
    return "\n".join(lines) + "\n" if lines else ""


__all__ = [
    "span_event",
    "chrome_trace_events",
    "export_chrome_trace",
    "prometheus_exposition",
    "sanitize_metric_name",
    "escape_label_value",
    "format_sample",
]
