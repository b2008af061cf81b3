"""Request-level span tracing.

A :class:`Tracer` records *spans* — named, timed intervals with
parent/child nesting — into a bounded in-memory ring buffer.  Two APIs
feed it:

* **live spans** (:meth:`Tracer.span`, a context manager) time a block of
  code on the current thread and nest automatically via a thread-local
  stack;
* **retroactive records** (:meth:`Tracer.record`) register an interval
  whose start/end timestamps were captured elsewhere — how the engine
  reports request lifecycles, whose phases interleave across the
  continuous batch and therefore cannot be wrapped in nested ``with``
  blocks.

Timestamps read the shared :mod:`repro.faults.clock` — the real
monotonic clock in production, a :class:`~repro.faults.FakeClock` under
the chaos harness — so span timelines from seeded fleet runs are
deterministic and replay byte-identically.

For cross-process requests, :meth:`Tracer.activate` installs a *remote
trace context* (a fleet-wide ``trace_id`` plus the upstream span
reference) on the current thread; every **root** span finished while the
context is active is stamped with ``trace_id`` / ``parent_span`` attrs,
which is how a worker's ``engine.request`` tree parents under the
router's ``fleet.predict`` span once the fleet collector stitches the
per-process dumps together (:mod:`repro.obs.distributed`).

Tracing is designed to be **default-off**: a disabled tracer's
:meth:`~Tracer.span` returns a shared no-op context manager and
:meth:`~Tracer.record` returns immediately, so instrumented code paths pay
one attribute check and nothing else.  Observability must never perturb
generation — spans only read the monotonic clock, never the RNG or any
model state.

Finished spans can be exported as JSON lines (:meth:`Tracer.export_jsonl`)
and read back with :func:`read_spans_jsonl` for offline inspection via
``repro obs --spans``.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError
from repro.faults import clock


@dataclass(frozen=True)
class Span:
    """One finished, named interval.

    Timestamps come from :func:`repro.faults.clock.now` (the real
    monotonic clock unless a fake is installed): comparable only within
    the process — and clock scope — that produced them.
    """

    name: str
    start_s: float
    end_s: float
    span_id: int
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            span_id=int(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            attrs=dict(payload.get("attrs") or {}),
        )


class _NoopSpan:
    """Shared do-nothing context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs) -> "_NoopSpan":
        del attrs
        return self


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open span on the current thread; finishes on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start_s")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.start_s = 0.0

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start_s = clock.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end_s = clock.now()
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if self.parent_id is None:
            self._tracer._stamp_context(self.attrs)
        self._tracer._append(
            Span(
                name=self.name,
                start_s=self.start_s,
                end_s=end_s,
                span_id=self.span_id,
                parent_id=self.parent_id,
                attrs=self.attrs,
            )
        )


class Tracer:
    """Bounded ring buffer of :class:`Span` objects.

    Attributes:
        enabled: when False every entry point is a no-op.
        capacity: ring-buffer size; the oldest spans are evicted first.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.total_recorded = 0  # lifetime counter; survives clear() and eviction

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
            self.total_recorded += 1

    # -- remote trace context ------------------------------------------------

    @contextmanager
    def activate(self, trace_id: str, parent_span: str | None = None):
        """Adopt a remote trace context on this thread for the block.

        While active, every *root* span (live or retroactive) finished on
        this thread is stamped with ``trace_id`` — and ``parent_span``
        when given — in its attrs, tying it to the upstream span that
        crossed the process boundary.  Contexts nest; the inner one wins
        and the outer is restored on exit.  Works on a disabled tracer
        too (where it is a cheap no-op), so propagation call sites never
        need to branch on tracing state.
        """
        previous = getattr(self._local, "context", None)
        self._local.context = (trace_id, parent_span)
        try:
            yield self
        finally:
            self._local.context = previous

    def _stamp_context(self, attrs: dict) -> None:
        """Fold the active remote context (if any) into a root span's attrs."""
        context = getattr(self._local, "context", None)
        if context is None:
            return
        trace_id, parent_span = context
        attrs.setdefault("trace_id", trace_id)
        if parent_span is not None:
            attrs.setdefault("parent_span", parent_span)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context manager timing a block on the current thread."""
        if not self.enabled:
            return _NOOP_SPAN
        return _LiveSpan(self, name, attrs)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent_id: int | None = None,
        **attrs,
    ) -> int | None:
        """Register a span from externally captured timestamps.

        Returns the new span id (usable as ``parent_id`` of later records),
        or None when the tracer is disabled.
        """
        if not self.enabled:
            return None
        if parent_id is None:
            self._stamp_context(attrs)
        span_id = next(self._ids)
        self._append(
            Span(
                name=name,
                start_s=start_s,
                end_s=end_s,
                span_id=span_id,
                parent_id=parent_id,
                attrs=attrs,
            )
        )
        return span_id

    # -- reading -------------------------------------------------------------

    def status(self) -> dict:
        """The ``"tracing"`` block of every ``stats()`` / ``metrics()`` payload."""
        return {
            "enabled": self.enabled,
            "spans_buffered": len(self),
            "spans_recorded": self.total_recorded,
        }

    def spans(self, name: str | None = None) -> list[Span]:
        """Snapshot of buffered spans, oldest first, optionally by name."""
        with self._lock:
            buffered = list(self._ring)
        if name is None:
            return buffered
        return [span for span in buffered if span.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop buffered spans; ``total_recorded`` stays monotonic."""
        with self._lock:
            self._ring.clear()

    def drain(self) -> list[Span]:
        """Atomically snapshot and clear the buffer (telemetry pull reads).

        Unlike ``spans()`` + ``clear()``, nothing recorded between the
        two calls can be lost — each span is drained exactly once.
        """
        with self._lock:
            drained = list(self._ring)
            self._ring.clear()
        return drained

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> int:
        """Write buffered spans as JSON lines; returns the number written."""
        buffered = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in buffered:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(buffered)


def read_spans_jsonl(path: str | Path, strict: bool = False) -> tuple[list[Span], int]:
    """Read a :meth:`Tracer.export_jsonl` dump; returns (spans, skipped).

    A dump can end mid-line when the exporting process is killed during
    :meth:`Tracer.export_jsonl`, so corrupt lines — invalid JSON, or JSON
    missing a span field — are skipped and counted rather than poisoning
    the whole file.  Pass ``strict=True`` to raise on the first bad line
    instead.
    """
    spans: list[Span] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                spans.append(Span.from_dict(payload))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                if strict:
                    raise ObservabilityError(
                        f"corrupt span on line {line_number} of {path}: {error}"
                    ) from error
                skipped += 1
    return spans, skipped


#: Shared disabled tracer for instrumented code paths with no tracer attached.
NULL_TRACER = Tracer(capacity=1, enabled=False)
