"""Prediction service: the GRPC/REST interface of the paper's demo.

"We expose a GRPC and REST API based interface to model predictions so that
inference can be called out using GRPC and REST clients."  Here the REST
flavour is implemented over the standard library's HTTP server; the same
:class:`PredictionService` object can also be called in-process (which is
what the editor-plugin simulation does).

Endpoints::

    POST /v1/completions        {"prompt": "...", "max_new_tokens": 96}
                             -> {"completion": "...", "latency_ms": ..., "cached": ...}
    POST /v1/completions?stream=1
                             -> text/event-stream of token and done (or
                                error) SSE events; concatenated token
                                text == the non-streaming completion
    POST /v1/batch_completions  {"prompts": ["...", ...], "max_new_tokens": 96}
                             -> {"completions": [...], "latency_ms": ..., "cached": [...]}
    POST /v1/sessions           {"buffer": "..."} -> {"session_id": ..., "completion": ...}
    POST /v1/sessions/{id}/extend
                                {"buffer": "<full new buffer>"}
                             -> same payload; only the keystroke suffix is
                                prefilled (``reused_tokens`` vs ``prefilled``)
    DELETE /v1/sessions/{id} -> {"closed": true|false}
    GET  /v1/health             -> {"status": "ok", "model": "..."}
    GET  /v1/stats              -> request counts, cache stats, latency stats,
                                   in-flight count and tracing status, session
                                   and engine stats (queue depth, batch
                                   occupancy, prefix-cache hits)
    GET  /v1/metrics            -> full metrics snapshot: per-endpoint latency
                                   histograms (p50/p90/p99), serving counters,
                                   engine queue-wait/prefill/decode histograms
                                   and prefix-cache hit rate
    GET  /v1/metrics?format=prometheus
                             -> the same registry as Prometheus text
    GET  /v1/telemetry          -> span drain for a fleet collector:
                                   {"spans": [...]}, removed on read

POST requests may carry the fleet trace headers ``X-Repro-Trace-Id`` /
``X-Repro-Parent-Span`` (see :mod:`repro.obs.distributed`): the service
adopts the remote trace context for the request, stamps its root spans
with it, and echoes the trace id in the response body and headers.

The service fronts one tokenizer-equipped
:class:`~repro.engine.engine.InferenceEngine` and shares its
:class:`~repro.obs.Observability`, so ``/v1/metrics`` is a single pane of
glass over both layers; attach an enabled tracer
(``service.obs.attach_tracer`` or ``engine.attach_tracer``) to
additionally capture request spans.

Two concurrency behaviours matter under load:

* **Request coalescing** — when two identical prompts arrive concurrently
  and both miss the cache, only the first runs generation; the second
  waits on the first's in-flight computation and reuses its result
  (``"coalesced": true`` in the response).  Without this, every cache miss
  thunders straight into the model.
* **Batched decoding** — ``/v1/batch_completions`` decodes all
  cache-missing prompts through the engine's continuous batcher in one
  pass instead of sequentially.

And three overload behaviours (the hardening layer):

* **Admission control** — ``max_queue_depth`` bounds concurrent
  generations; excess requests are *shed* before touching the model with
  a typed :class:`~repro.errors.ServiceOverloadedError` carrying a
  retry-after hint of :data:`SHED_RETRY_AFTER_S` (HTTP 503 +
  ``Retry-After``).
* **Graceful degradation** — with a ``fallback`` model (e.g. the
  n-gram baseline), saturated or engine-shed requests are served by the
  fallback instead of erroring, flagged ``"degraded": true`` and never
  cached.
* **Deadlines** — ``deadline_s`` (or ``deadline_ms`` over HTTP) bounds a
  request's wall time through the engine; expiry surfaces as
  :class:`~repro.errors.DeadlineExceededError` (HTTP 504).  Partial
  output from expired, cancelled or shed requests is never cached.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Protocol
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    OUTCOME_ERRORS,
    REQUEST_ERRORS,
    DeadlineExceededError,
    RequestCancelledError,
    ServiceOverloadedError,
    ServingError,
)
from repro.faults import clock
from repro.obs.distributed import TRACE_ID_HEADER, TraceContext, adopt
from repro.obs.export import prometheus_exposition
from repro.serving.cache import LruCache
from repro.serving.session import SessionManager
from repro.serving.stream import TextDelta, sse_encode

#: Seconds a shed request is told to wait (``retry_after_s`` / the
#: ``Retry-After`` header), by the service and the fleet router alike.
SHED_RETRY_AFTER_S = 0.5


def require_text(name: str, value) -> None:
    """Reject anything but a non-blank string (a prompt, a buffer)."""
    if not isinstance(value, str) or not value.strip():
        raise ServingError(f"{name} must be a non-empty string")


def require_prompts(prompts) -> None:
    if not isinstance(prompts, list) or not prompts:
        raise ServingError("prompts must be a non-empty list of strings")
    for prompt in prompts:
        require_text("every prompt", prompt)


def _error_event(error) -> tuple[str, dict]:
    """A typed error as the in-band terminal event of a stream under way."""
    data = {"error": str(error), "status": error.status, "outcome": error.outcome}
    if getattr(error, "retry_after_s", None) is not None:
        data["retry_after_s"] = error.retry_after_s
    return "error", data


class _InflightEntry:
    """A computation one thread owns and others wait on."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.completion: str | None = None
        self.error: BaseException | None = None
        self.degraded = False


class PredictionService:
    """Fronts an :class:`~repro.engine.engine.InferenceEngine` with caching,
    coalescing, admission control and latency accounting.

    The engine must carry a tokenizer (the service speaks text; its
    keystroke sessions tokenize buffers) — a tokenizer-less engine is a
    :class:`~repro.errors.ServingError` here.  Every count lands in the
    engine's metrics registry, so ``/v1/metrics`` covers both layers.
    """

    def __init__(
        self,
        engine,
        cache_capacity: int = 256,
        max_new_tokens: int = 96,
        max_queue_depth: int | None = None,
        fallback=None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServingError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        # Keystroke sessions are pinned paths in the engine's prefix store;
        # the manager rejects an engine without a tokenizer.
        self.sessions = SessionManager(engine)
        self.engine = engine
        self.fallback = fallback
        self.obs = engine.obs
        # Every count is a registry counter (DESIGN.md "Counting"); those
        # ``stats()`` reports together are bumped, and all read, under ``_lock``.
        metrics = self.obs.metrics
        self.cache = LruCache(cache_capacity, metrics)
        self.max_new_tokens = max_new_tokens
        self.max_queue_depth = max_queue_depth
        self._inflight_count = 0  # generations currently admitted (backpressure)
        self._lock = threading.Lock()
        self._inflight: dict[str, _InflightEntry] = {}
        self._h_completions = metrics.histogram("serving.completions_s")
        self._h_batch = metrics.histogram("serving.batch_completions_s")
        self._c_requests = metrics.counter("serving.requests")
        self._c_latency_ms = metrics.counter("serving.latency_ms_total")
        self._c_batch_requests = metrics.counter("serving.batch_requests")
        self._c_coalesced = metrics.counter("serving.coalesced")
        self._c_shed = metrics.counter("serving.shed")
        self._c_degraded = metrics.counter("serving.degraded")
        self._c_deadline = metrics.counter("serving.deadline_exceeded")
        self._c_cancelled = metrics.counter("serving.cancelled")
        self._g_inflight = metrics.gauge("serving.inflight")
        self._c_streams = metrics.counter("serving.streams")
        self._c_stream_disconnects = metrics.counter("serving.stream_disconnects")
        self._h_stream_ttft = metrics.histogram("serving.stream_ttft_s")
        self._h_intertoken = metrics.histogram("serving.stream_intertoken_s")

    # -- admission / degradation ---------------------------------------------

    def _try_admit(self) -> bool:
        """Claim a generation slot; False when the service is saturated."""
        with self._lock:
            if self.max_queue_depth is not None and self._inflight_count >= self.max_queue_depth:
                return False
            self._inflight_count += 1
            self._g_inflight.inc()
            return True

    def _release_admission(self) -> None:
        with self._lock:
            self._inflight_count -= 1
            self._g_inflight.dec()

    def _shed(self, reason: str) -> ServiceOverloadedError:
        """Account a shed request and build the typed 503 to raise."""
        self._c_shed.inc()
        return ServiceOverloadedError(
            f"service overloaded ({reason}); retry after {SHED_RETRY_AFTER_S}s",
            retry_after_s=SHED_RETRY_AFTER_S,
        )

    def _degrade(self, prompt: str, budget: int, reason: str) -> str:
        """Serve ``prompt`` through the fallback model (never cached).

        Raises the typed 503 instead when no fallback is configured —
        degradation is strictly better than shedding, shedding strictly
        better than failing loudly mid-stack.
        """
        if self.fallback is None:
            raise self._shed(reason)
        completion = self.fallback.complete(prompt, max_new_tokens=budget)
        self._c_degraded.inc()
        return completion

    def _abort(self, outcome: str, deadline_s: float | None) -> Exception:
        """Count an expired or cancelled request; returns its typed error."""
        if outcome == "deadline_exceeded":
            self._c_deadline.inc()
            return DeadlineExceededError(f"deadline of {deadline_s}s exceeded")
        self._c_cancelled.inc()
        return RequestCancelledError("request cancelled")

    def _settle(self, prompt: str, budget: int, outcome: str, deadline_s: float | None) -> str:
        """What an abnormal engine outcome becomes, for every engine-backed
        path: a shed request degrades to the fallback (or raises the typed
        503), an expired one raises the typed 504, a cancelled one the
        typed client-closed-request error.  Returns the degraded text."""
        if outcome == "shed":
            return self._degrade(prompt, budget, "engine shed the request")
        raise self._abort(outcome, deadline_s)

    @staticmethod
    def _echo(payload: dict, trace_context: TraceContext | None) -> dict:
        if trace_context is not None:
            payload["trace_id"] = trace_context.trace_id
        return payload

    def _generate(
        self, prompt: str, budget: int, deadline_s: float | None
    ) -> tuple[str, bool, float | None]:
        """One completion honouring deadlines; ``(text, degraded, ttft_s)``.

        The engine's outcome-aware path reports shed / deadline / cancelled
        dispositions as data, not exceptions; they map onto serving
        behaviour in :meth:`_settle`.  ``ttft_s`` is the engine-measured
        time to first token, or None when the request never reached decode.
        """
        detail = self.engine.complete_batch_detailed(
            [prompt], max_new_tokens=budget, deadline_s=deadline_s
        )[0]
        if detail["outcome"] == "completed":
            return detail["completion"], False, detail["ttft_s"]
        return self._settle(prompt, budget, detail["outcome"], deadline_s), True, None

    # -- single prediction ---------------------------------------------------

    def predict(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """One prediction, served from cache or a coalesced in-flight twin.

        Saturation (``max_queue_depth`` concurrent generations already
        running) degrades to the fallback model or sheds with a typed
        503 *before* the model is touched; cache hits are still served
        regardless, since they cost nothing.

        ``trace_context`` is the upstream fleet trace (minted by the
        router, carried over HTTP headers or in-process): while this
        request runs, the service's and engine's root spans are stamped
        with its trace id / parent span, and the response echoes the
        trace id as ``"trace_id"``.
        """
        require_text("prompt", prompt)
        budget = max_new_tokens or self.max_new_tokens
        tracer = self.obs.tracer
        with adopt(tracer, trace_context), tracer.span("serving.predict") as span:
            payload = self._predict(prompt, budget, deadline_s)
            span.set(
                cached=payload["cached"],
                coalesced=bool(payload.get("coalesced")),
                degraded=bool(payload.get("degraded")),
            )
            return self._echo(payload, trace_context)

    def _predict(self, prompt: str, budget: int, deadline_s: float | None) -> dict:
        started = clock.now()
        with self._lock:
            cached = self.cache.get(prompt)
            if cached is not None:
                return self._account(cached, started, cached_hit=True)
            entry = self._inflight.get(prompt)
            owner = entry is None
            if owner:
                entry = _InflightEntry()
                self._inflight[prompt] = entry
        if not owner:
            # Coalesce: another thread is already generating this prompt.
            # The wait is bounded by this request's own deadline, not the
            # owner's: expiry leaves the owner and its other waiters be.
            remaining = None if deadline_s is None else deadline_s - (clock.now() - started)
            if not entry.done.wait(remaining):
                raise self._abort("deadline_exceeded", deadline_s)
            if entry.error is not None:
                if isinstance(entry.error, REQUEST_ERRORS):
                    raise entry.error  # keep the typed status (503/504/...) for waiters
                raise ServingError(f"coalesced request failed: {entry.error}") from entry.error
            with self._lock:
                return self._account(
                    entry.completion, started, cached_hit=True, coalesced=True,
                    degraded=entry.degraded,
                )
        try:
            if self._try_admit():
                try:
                    completion, degraded, ttft_s = self._generate(prompt, budget, deadline_s)
                finally:
                    self._release_admission()
            else:
                completion, degraded, ttft_s = self._degrade(prompt, budget, "queue full"), True, None
            entry.completion = completion
            entry.degraded = degraded
        except BaseException as error:
            entry.error = error
            raise
        finally:
            with self._lock:
                self._inflight.pop(prompt, None)
                # Only normal completions are cacheable: degraded output
                # comes from the fallback model, and erroring requests
                # (shed / expired / cancelled) produced partial work.
                if entry.error is None and not entry.degraded:
                    self.cache.put(prompt, entry.completion)
            entry.done.set()
        with self._lock:
            return self._account(
                completion, started, cached_hit=False, degraded=degraded, ttft_s=ttft_s
            )

    def _account(
        self,
        completion: str,
        started: float,
        cached_hit: bool,
        coalesced: bool = False,
        degraded: bool = False,
        ttft_s: float | None = None,
    ) -> dict:
        """Record latency and build a response payload (caller holds the lock)."""
        latency_ms = (clock.now() - started) * 1000.0
        self._c_requests.inc()
        self._c_latency_ms.inc(latency_ms)
        self._h_completions.observe(latency_ms / 1000.0)
        if coalesced:
            self._c_coalesced.inc()
        payload = {"completion": completion, "latency_ms": latency_ms, "cached": cached_hit}
        if coalesced:
            payload["coalesced"] = True
        if degraded:
            payload["degraded"] = True
        if ttft_s is not None:
            payload["ttft_ms"] = ttft_s * 1000.0
        return payload

    # -- streaming -----------------------------------------------------------

    def predict_stream(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ):
        """One completion as a stream of ``(event, data)`` pairs.

        Events follow :data:`repro.serving.stream.STREAM_EVENTS`: zero or
        more ``token`` events whose ``text`` fields concatenate to exactly
        the non-streaming completion, and one terminal ``done`` — or
        ``error`` carrying an HTTP-ish ``status`` for dispositions that
        surface after the first byte has been sent (504 deadline, 408
        cancel, 503 shed with no fallback).

        Closing the generator mid-stream is the client-disconnect path:
        the engine request is cancelled cooperatively and its KV slabs
        return to the arena immediately.  Streams skip the coalescing map
        (two concurrent identical streams each decode — delivery order is
        the product) but share the cache both ways: hits replay as a
        single burst, and completed streams populate it.

        Validation errors and pre-stream shedding raise *before* the
        first event, so an HTTP front-end can still answer with a plain
        status; anything after the first token arrives in-band.
        """
        require_text("prompt", prompt)
        budget = max_new_tokens or self.max_new_tokens
        return self._predict_stream(prompt, budget, deadline_s, trace_context)

    def _stream_done(
        self, payload: dict, trace_context: TraceContext | None, stop_reason=None, **extra
    ) -> tuple[str, dict]:
        """The terminal ``done`` event for one accounted completion payload."""
        data = {
            "completion": payload["completion"],
            "stop_reason": stop_reason,
            "outcome": "completed",
            "cached": payload["cached"],
            "degraded": bool(payload.get("degraded")),
            "latency_ms": payload["latency_ms"],
            **extra,
        }
        return "done", self._echo(data, trace_context)

    def _burst(self, payload: dict, trace_context: TraceContext | None, index: int = 0):
        """A whole completion replayed as a one-burst stream: what a cache
        hit and a degraded answer look like on the wire."""
        yield "token", {"text": payload["completion"], "index": index}
        yield self._stream_done(payload, trace_context)

    def _predict_stream(
        self,
        prompt: str,
        budget: int,
        deadline_s: float | None,
        trace_context: TraceContext | None,
    ):
        started = clock.now()
        with self._lock:
            self._c_streams.inc()
            cached = self.cache.get(prompt)
        if cached is not None:
            with self._lock:
                payload = self._account(cached, started, cached_hit=True)
        elif not self._try_admit():
            text = self._degrade(prompt, budget, "queue full")  # raises 503 sans fallback
            with self._lock:
                payload = self._account(text, started, cached_hit=False, degraded=True)
        else:
            yield from self._stream_tokens(prompt, budget, deadline_s, trace_context, started)
            return
        yield from self._burst(payload, trace_context)

    def _stream_tokens(
        self,
        prompt: str,
        budget: int,
        deadline_s: float | None,
        trace_context: TraceContext | None,
        started: float,
    ):
        """The token-level path of a stream, one engine burst per event.
        The caller claimed the admission slot; it is released here."""
        engine = self.engine
        tokenizer = engine.tokenizer
        deltas = TextDelta(tokenizer)
        handle: list = []
        token_ids: list[int] = []
        index = 0
        first_token_at: float | None = None
        last_emit = started
        finished = False
        inner = engine.stream_ids(
            tokenizer.encode(prompt), budget, deadline_s=deadline_s, handle=handle
        )
        try:
            with adopt(self.obs.tracer, trace_context):
                for burst in inner:
                    now = clock.now()
                    if first_token_at is None:
                        first_token_at = now
                        self._h_stream_ttft.observe(now - started)
                    else:
                        self._h_intertoken.observe(now - last_emit)
                    last_emit = now
                    token_ids.extend(burst)
                    text = deltas.push(token_ids)
                    yield "token", {"text": text, "token_ids": list(burst), "index": index}
                    index += 1
                request = handle[0]
                if request.outcome == "completed":
                    tail = deltas.flush(token_ids)
                    if tail:
                        yield "token", {"text": tail, "token_ids": [], "index": index}
                    completion = tokenizer.decode(request.generated)
                    # A first token that was a stop id produced no burst:
                    # the engine's TTFT stands in (one rule: see DESIGN.md).
                    ttft_s = (
                        first_token_at - started
                        if first_token_at is not None
                        else request.ttft_s
                    )
                    with self._lock:
                        self.cache.put(prompt, completion)
                        payload = self._account(
                            completion, started, cached_hit=False, ttft_s=ttft_s
                        )
                    yield self._stream_done(
                        payload,
                        trace_context,
                        request.stop_reason,
                        ttft_ms=payload.get("ttft_ms"),
                        generated_tokens=len(request.generated),
                    )
                else:
                    # Bytes may have flowed already, so a disposition that
                    # would have been an HTTP status arrives in-band.
                    try:
                        text = self._settle(prompt, budget, request.outcome, deadline_s)
                    except OUTCOME_ERRORS as error:
                        yield _error_event(error)
                    else:
                        with self._lock:
                            payload = self._account(text, started, cached_hit=False, degraded=True)
                        yield from self._burst(payload, trace_context, index)
                finished = True
        finally:
            # Runs on normal completion AND on generator close (client
            # disconnect): closing the engine stream cancels a still-live
            # request and reaps it, freeing its arena blocks immediately.
            inner.close()
            self._release_admission()
            if not finished:
                self._c_stream_disconnects.inc()
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record(
                    "serving.predict_stream",
                    started,
                    clock.now(),
                    tokens=len(token_ids),
                    disconnected=not finished,
                )

    # -- sessions ------------------------------------------------------------

    def _session_call(
        self,
        name: str,
        trace_context: TraceContext | None,
        deadline_s: float | None,
        runner,
        discard_on_abort: bool = False,
    ) -> dict:
        """Shared admission / tracing / outcome plumbing for session ops.

        ``discard_on_abort`` marks calls whose caller has no way to learn
        the session id when the call maps to an error status (create): a
        session that survived server-side but was never announced would be
        an orphan pinning its path until eviction, so it is closed
        before the error propagates.
        """
        started = clock.now()
        if not self._try_admit():
            raise self._shed("queue full")
        try:
            with adopt(self.obs.tracer, trace_context), self.obs.tracer.span(name) as span:
                payload = runner()
                span.set(outcome=payload["outcome"], reused=payload["reused_tokens"])
        except ServiceOverloadedError as error:
            # Shed at admission (a prefill fault): count the 503
            # and answer with the service's Retry-After, like any other.
            raise self._shed(str(error)) from error
        finally:
            self._release_admission()
        if payload["outcome"] != "completed":
            if discard_on_abort:
                self.sessions.close(payload["session_id"])
            raise self._abort(payload["outcome"], deadline_s)
        latency_ms = (clock.now() - started) * 1000.0
        with self._lock:
            self._c_requests.inc()
            self._c_latency_ms.inc(latency_ms)
        payload["latency_ms"] = latency_ms
        payload["ttft_ms"] = payload.pop("ttft_s") * 1000.0
        return self._echo(payload, trace_context)

    def session_create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """``POST /v1/sessions``: open a keystroke session from a full buffer."""
        require_text("buffer", buffer)
        budget = max_new_tokens or self.max_new_tokens
        return self._session_call(
            "serving.session_create",
            trace_context,
            deadline_s,
            lambda: self.sessions.create(buffer, budget, deadline_s),
            discard_on_abort=True,
        )

    def session_extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """``POST /v1/sessions/{id}/extend``: continue with the new buffer.

        Raises :class:`~repro.errors.SessionNotFoundError` (HTTP 404) for
        evicted / unknown ids — clients fall back to
        :meth:`session_create`.
        """
        require_text("buffer", buffer)
        budget = max_new_tokens or self.max_new_tokens
        return self._session_call(
            "serving.session_extend",
            trace_context,
            deadline_s,
            lambda: self.sessions.extend(session_id, buffer, budget, deadline_s),
        )

    def session_close(self, session_id: str) -> dict:
        """``DELETE /v1/sessions/{id}``: unpin the session's path in the prefix store."""
        return {"session_id": session_id, "closed": self.sessions.close(session_id)}

    # -- batch prediction ----------------------------------------------------

    def predict_batch(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict:
        """Serve a whole batch, decoding cache misses together.

        Duplicate prompts within the batch run once; misses decode together
        through the engine's continuous batcher.  Under saturation the
        whole batch degrades to the fallback (or sheds with a typed 503);
        per-prompt engine sheds degrade individually.
        """
        require_prompts(prompts)
        budget = max_new_tokens or self.max_new_tokens
        tracer = self.obs.tracer
        with adopt(tracer, trace_context), tracer.span(
            "serving.predict_batch", batch_size=len(prompts)
        ) as span:
            payload = self._predict_batch(prompts, budget, deadline_s)
            span.set(decoded=payload["decoded"])
            return self._echo(payload, trace_context)

    def _complete_misses(
        self, misses: list[str], budget: int, deadline_s: float | None
    ) -> list[tuple[str, bool]]:
        """Generate the cache-missing prompts; returns ``(text, degraded)`` pairs."""
        details = self.engine.complete_batch_detailed(
            misses, max_new_tokens=budget, deadline_s=deadline_s
        )
        results: list[tuple[str, bool]] = []
        for prompt, detail in zip(misses, details):
            if detail["outcome"] == "completed":
                results.append((detail["completion"], False))
            else:  # an engine shed degrades just this prompt; the rest raise
                text = self._settle(prompt, budget, detail["outcome"], deadline_s)
                results.append((text, True))
        return results

    def _predict_batch(self, prompts: list[str], budget: int, deadline_s: float | None) -> dict:
        started = clock.now()
        completions: dict[str, str] = {}
        cached_flags: dict[str, bool] = {}
        degraded_flags: dict[str, bool] = {}
        misses: list[str] = []
        seen: set[str] = set()
        for prompt in prompts:
            if prompt in seen:
                continue
            seen.add(prompt)
            hit = self.cache.get(prompt)
            if hit is not None:
                completions[prompt] = hit
                cached_flags[prompt] = True
            else:
                misses.append(prompt)
                cached_flags[prompt] = False
            degraded_flags[prompt] = False
        if misses:
            if self._try_admit():
                try:
                    generated = self._complete_misses(misses, budget, deadline_s)
                finally:
                    self._release_admission()
            else:
                generated = [(self._degrade(prompt, budget, "queue full"), True) for prompt in misses]
            for prompt, (completion, degraded) in zip(misses, generated):
                completions[prompt] = completion
                degraded_flags[prompt] = degraded
                if not degraded:
                    self.cache.put(prompt, completion)
        latency_ms = (clock.now() - started) * 1000.0
        with self._lock:
            self._c_requests.inc(len(prompts))
            self._c_batch_requests.inc()
            self._c_latency_ms.inc(latency_ms)
        self._h_batch.observe(latency_ms / 1000.0)
        return {
            "completions": [completions[prompt] for prompt in prompts],
            "cached": [cached_flags[prompt] for prompt in prompts],
            "degraded": [degraded_flags[prompt] for prompt in prompts],
            "latency_ms": latency_ms,
            "batch_size": len(prompts),
            "decoded": len(misses),
        }

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        return {"status": "ok", "model": self.engine.name}

    def stats(self) -> dict:
        """Serving counters as one mutually-consistent snapshot.

        Every serving-side field — the registry's request/shed/degraded
        counters AND the inflight depth — is read in a single pass under
        ``self._lock``, the lock their grouped bumps hold.  ``inflight``
        is ``_inflight_count``, the number admission is decided on; the
        ``serving.inflight`` gauge is set beside it under this same lock
        by ``_try_admit``/``_release_admission``, so the two agree.
        """
        with self._lock:
            requests = self._c_requests.value
            report = {
                "requests": requests,
                "batch_requests": self._c_batch_requests.value,
                "coalesced_requests": self._c_coalesced.value,
                "shed_requests": self._c_shed.value,
                "degraded_requests": self._c_degraded.value,
                "deadline_exceeded_requests": self._c_deadline.value,
                "cancelled_requests": self._c_cancelled.value,
                "stream_requests": self._c_streams.value,
                "stream_disconnects": self._c_stream_disconnects.value,
                "max_queue_depth": self.max_queue_depth,
                "inflight": self._inflight_count,
                "cache_hit_rate": self.cache.hit_rate,
                "cache": self.cache.stats(),
                "mean_latency_ms": self._c_latency_ms.value / requests if requests else 0.0,
            }
        report["fallback"] = getattr(self.fallback, "name", None) if self.fallback else None
        report["tracing"] = self.obs.tracer.status()
        report["sessions"] = self.sessions.stats()
        report["engine"] = self.engine.stats()
        return report

    def metrics(self) -> dict:
        """The ``/v1/metrics`` payload: full snapshot across the stack.

        ``metrics`` holds every counter/gauge/histogram registered against
        the shared registry (serving latencies plus the engine's
        queue-wait/prefill/decode histograms); the ``engine`` section
        repeats the scheduler and prefix-cache counters so hit rates are
        available even to metrics-only scrapers.
        """
        return {
            "metrics": self.obs.metrics.snapshot(),
            "tracing": self.obs.tracer.status(),
            "engine": self.engine.stats(),
        }

    def metrics_prometheus(self) -> str:
        """The ``/v1/metrics?format=prometheus`` body: text exposition.

        Same registry as the JSON snapshot, rendered in the line protocol
        a Prometheus server scrapes (``# TYPE`` headers, cumulative
        histogram buckets) — point a scrape job at the endpoint and every
        serving/engine/training instrument lands in one time series
        database.
        """
        return prometheus_exposition(self.obs.metrics)

    def telemetry(self) -> dict:
        """The ``GET /v1/telemetry`` payload a fleet collector drains.

        Spans are **drained** — atomically removed from the tracer's ring
        buffer, so a polling collector receives each span exactly once
        and the buffer cannot overflow between polls.  Metrics are not
        part of the drain: ``/v1/metrics`` is the scrape endpoint.
        """
        return {"spans": [span.to_dict() for span in self.obs.tracer.drain()]}


class Backend(Protocol):
    """What a :class:`RestServer` fronts: the route table's methods plus the
    Prometheus rendering behind ``/v1/metrics?format=prometheus``.
    :class:`PredictionService` and :class:`~repro.fleet.router.FleetRouter`
    satisfy it (DESIGN.md "Request surface")."""

    def predict(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict: ...

    def predict_stream(
        self,
        prompt: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> Iterator[tuple[str, dict]]: ...

    def predict_batch(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict: ...

    def session_create(
        self,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict: ...

    def session_extend(
        self,
        session_id: str,
        buffer: str,
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
        trace_context: TraceContext | None = None,
    ) -> dict: ...

    def session_close(self, session_id: str) -> dict: ...

    def health(self) -> dict: ...

    def stats(self) -> dict: ...

    def metrics(self) -> dict: ...

    def metrics_prometheus(self) -> str: ...

    def telemetry(self) -> dict: ...


#: The route table: ``(verb, path pattern) -> (backend method, body fields)``.
#: ``*`` binds a path argument, passed first.  Routes with body fields also
#: take the request envelope: the first present field as the text, then
#: ``max_new_tokens`` / ``deadline_ms`` and the trace headers.  The table
#: holds method *names*, asked of the backend per request, so a wrapper set
#: as an instance attribute on a live service or router is honoured.
_ROUTES = {
    ("GET", "/v1/health"): ("health", None),
    ("GET", "/v1/stats"): ("stats", None),
    ("GET", "/v1/telemetry"): ("telemetry", None),
    ("GET", "/v1/metrics"): ("metrics", None),
    ("POST", "/v1/completions"): ("predict", ("prompt",)),
    ("POST", "/v1/batch_completions"): ("predict_batch", ("prompts",)),
    ("POST", "/v1/sessions"): ("session_create", ("buffer", "prompt")),
    ("POST", "/v1/sessions/*/extend"): ("session_extend", ("buffer", "prompt")),
    ("DELETE", "/v1/sessions/*"): ("session_close", None),
}


def _match(verb: str, path: str):
    """``(backend method, body fields, path arguments)`` or None."""
    parts = [part for part in path.split("/") if part]
    for (route_verb, pattern), (method, fields) in _ROUTES.items():
        if route_verb != verb:
            continue
        wanted = pattern.strip("/").split("/")
        if len(wanted) == len(parts) and all(w in ("*", p) for w, p in zip(wanted, parts)):
            return method, fields, [p for w, p in zip(wanted, parts) if w == "*"]
    return None


def _envelope(body) -> tuple[int | None, float | None]:
    """Type-check a request body once: ``(max_new_tokens, deadline_s)``.

    Bodies arrive from outside the program: a wrong JSON type must answer
    400, not escape as a ``TypeError`` and drop the connection.  0 keeps
    meaning "server default" for ``max_new_tokens``.
    """
    if not isinstance(body, dict):
        raise ServingError("request body must be a JSON object")
    budget, deadline_ms = body.get("max_new_tokens"), body.get("deadline_ms")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ServingError("max_new_tokens must be a non-negative integer")
    if deadline_ms is None:
        return budget, None
    if type(deadline_ms) not in (int, float) or not math.isfinite(deadline_ms):
        raise ServingError("deadline_ms must be a finite number")
    return budget, deadline_ms / 1000.0


class _Handler(BaseHTTPRequestHandler):
    """One client connection, kept alive: HTTP/1.1, one request after another.

    Keep-alive makes the framing strict.  An answer sent before the
    request's body was read closes the connection, or the unread bytes
    would be parsed as the next request.  A stream has no length, so it
    goes out chunked and ends with the zero-length chunk; a stream whose
    client hung up mid-way closes the connection.
    """

    service: Backend  # set by the server factory
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes: with Nagle's algorithm on, the
    # body waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    _unread_body = False  # the request declared a body nobody has read yet

    def log_message(self, format: str, *args) -> None:  # silence default logging
        del format, args

    def _send(
        self, body: bytes, content_type: str, status: int = 200, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._unread_body:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, payload: dict, status: int = 200, headers: dict[str, str] | None = None
    ) -> None:
        self._send(json.dumps(payload).encode("utf-8"), "application/json", status, headers)

    def _send_error(self, error) -> None:
        """A typed error as its HTTP status (the disposition table, left to right)."""
        payload, headers = {"error": str(error)}, None
        if isinstance(error, ServiceOverloadedError):
            retry_after = error.retry_after_s if error.retry_after_s is not None else 1.0
            payload["retry_after_s"] = retry_after
            headers = {"Retry-After": str(max(1, math.ceil(retry_after)))}
        self._send_json(payload, status=error.status, headers=headers)

    def _stream_sse(self, events, trace_context: TraceContext | None) -> None:
        """Write a ``(event, data)`` generator as a chunked ``text/event-stream``.

        The first event is pulled *before* the status line goes out, so
        pre-stream failures (validation, shed-without-fallback) still map
        to plain HTTP statuses in the caller.  Each event is one chunk and
        one write — size line, SSE bytes and CRLF together — and the
        terminal zero-length chunk ends the body, so the connection carries
        the next request.  An HTTP/1.0 peer cannot read chunks: its body is
        the bare events, delimited by the close.  Once streaming, a failed
        write — the client hung up — closes the generator, which cancels
        the underlying engine request and frees its KV slabs, and closes
        the connection.
        """
        events = iter(events)
        try:
            first = next(events)
        except StopIteration:
            first = None
        chunked = self.request_version != "HTTP/1.0"
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        if self._unread_body or not chunked:
            self.send_header("Connection", "close")
        if trace_context is not None:
            self.send_header(TRACE_ID_HEADER, trace_context.trace_id)
        self.end_headers()
        try:
            if first is not None:
                for event, data in itertools.chain((first,), events):
                    frame = sse_encode(event, data)
                    if chunked:
                        frame = b"%x\r\n%s\r\n" % (len(frame), frame)
                    self.wfile.write(frame)
            if chunked:
                self.wfile.write(b"0\r\n\r\n")
        except OSError:
            self.close_connection = True  # the client hung up mid-stream
        finally:
            events.close()

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:  # read(-1) would block this thread until the client hangs up
            raise ServingError(f"Content-Length must be >= 0, got {length}")
        body = self.rfile.read(length)
        self._unread_body = "Transfer-Encoding" in self.headers  # a chunked body is not read
        return body

    def _route(self, verb: str) -> None:
        """Serve one request off the route table; the one backend call site."""
        self._unread_body = (
            "Transfer-Encoding" in self.headers or self.headers.get("Content-Length", "0") != "0"
        )
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        route = _match(verb, parsed.path)
        if route is None:
            self._send_json({"error": f"unknown path {self.path}"}, status=404)
            return
        method, fields, args = route
        kwargs: dict = {}
        trace_context = None
        try:
            if fields is not None:
                body = json.loads(self._read_body() or b"{}")
                max_new_tokens, deadline_s = _envelope(body)
                trace_context = TraceContext.from_headers(self.headers)
                text = next((body[name] for name in fields if name in body), None)
                args += [text, max_new_tokens]
                kwargs = {"deadline_s": deadline_s, "trace_context": trace_context}
                stream = (query.get("stream") or ["0"])[0] in ("1", "true") or body.get("stream")
                if method == "predict" and stream:
                    method = "predict_stream"
            elif method == "metrics":
                wire_format = (query.get("format") or ["json"])[0]
                if wire_format == "prometheus":
                    method = "metrics_prometheus"
                elif wire_format != "json":
                    raise ServingError(f"unknown metrics format {wire_format!r}")
            result = getattr(self.service, method)(*args, **kwargs)
            if method == "predict_stream":
                self._stream_sse(result, trace_context)
            elif method == "metrics_prometheus":
                self._send(result.encode("utf-8"), "text/plain; version=0.0.4")
            else:
                headers = None
                if trace_context is not None:
                    headers = {TRACE_ID_HEADER: trace_context.trace_id}
                self._send_json(result, headers=headers)
        except REQUEST_ERRORS as error:
            self._send_error(error)
        except (ValueError, OverflowError) as error:  # unparseable JSON, length or number
            self._send_json({"error": f"bad request: {error}"}, status=400)

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")


class _Server(ThreadingHTTPServer):
    """A thread per connection, and a list of the open ones: a keep-alive
    connection outlives its requests, so stopping the listener alone would
    leave idle connections answering."""

    def __init__(self, address: tuple[str, int], handler) -> None:
        super().__init__(address, handler)
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], ConnectionError):  # not just a client hanging up
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Answer nothing more: wake every connection's thread with an end
        of file and send its client one.  A request that arrives later is
        reset by the kernel, never read."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its client


class RestServer:
    """A small threaded HTTP server around a :class:`Backend`: a
    :class:`PredictionService` or a :class:`~repro.fleet.router.FleetRouter`."""

    def __init__(self, service: Backend, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = _Server((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RestServer":
        if self._thread is not None:
            raise ServingError("server already started")
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.close_connections()
        self._httpd.server_close()

    def __enter__(self) -> "RestServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
