"""The engine facade: submit prompts, get completions, read stats.

:class:`InferenceEngine` wires the request lifecycle, the prefix store and
the continuous batcher together behind these entry points:

* :meth:`generate_batch` — token-id level, returns
  :class:`~repro.nn.sampling.GenerationResult` per prompt;
* :meth:`stream_ids` — one prompt, token bursts as they land;
* :meth:`generate_pinned` — one prompt whose fed context stays pinned in
  the prefix store (keystroke sessions), returns the finished request;
* :meth:`complete_batch_detailed` — text level (requires a tokenizer),
  what :class:`repro.serving.service.PredictionService` decodes through.

All are consumers of one request lifecycle, :meth:`_run`.  The engine is
synchronous: a call drains its own requests before returning.  A coarse
lock serialises concurrent callers — e.g. threads of the REST server — so
the shared KV batch and prefix store stay consistent (the batch is empty
whenever the lock is free); the batching *within* a call is what buys the
throughput.
"""

from __future__ import annotations

import threading

from repro.engine.batcher import ContinuousBatcher
from repro.engine.prefix_cache import PrefixCache
from repro.engine.request import GenerationRequest
from repro.errors import EngineError
from repro.nn.kv_arena import KVArena
from repro.nn.sampling import GenerationResult, plan_prompt
from repro.nn.transformer import DecoderLM
from repro.obs import Observability, OpProfiler, Tracer


class InferenceEngine:
    """Continuous-batching greedy-decoding engine over a :class:`DecoderLM`."""

    def __init__(
        self,
        network: DecoderLM,
        tokenizer=None,
        *,
        name: str = "engine",
        max_batch_size: int = 8,
        prefix_cache_capacity: int = 32,
        default_max_new_tokens: int = 96,
        stop_ids: frozenset[int] | set[int] = frozenset(),
        obs: Observability | None = None,
        speculative_k: int = 0,
        draft_model=None,
    ):
        self.network = network
        self.tokenizer = tokenizer
        self.name = name
        self.default_max_new_tokens = default_max_new_tokens
        self.default_stop_ids = frozenset(stop_ids)
        self.obs = obs if obs is not None else Observability()
        # One paged arena owns every KV byte this engine touches — decode
        # batches, prefills and prefix-store segments all draw its slabs.
        self.kv_arena = KVArena()
        self.prefix_cache = PrefixCache(prefix_cache_capacity)
        self.batcher = ContinuousBatcher(
            network,
            max_batch_size=max_batch_size,
            prefix_cache=self.prefix_cache,
            obs=self.obs,
            arena=self.kv_arena,
            speculative_k=speculative_k,
            draft_model=draft_model,
        )
        self._lock = threading.Lock()
        self._next_request_id = 0
        metrics = self.obs.metrics
        self._h_queue_wait = metrics.histogram("engine.queue_wait_s")
        self._h_prefill = metrics.histogram("engine.prefill_s")
        self._h_decode = metrics.histogram("engine.decode_s")
        self._c_requests = metrics.counter("engine.requests")
        self._c_generated = metrics.counter("engine.generated_tokens")

    def attach_tracer(self, tracer: Tracer) -> None:
        """Route request-lifecycle and decode-step spans to ``tracer``."""
        self.obs.attach_tracer(tracer)

    def attach_profiler(self, profiler: OpProfiler) -> None:
        """Record per-op FLOPs/latency for every decode through ``profiler``.

        Hooks the network's layer methods in place; the profiler's hot-op
        table then attributes prefill/decode wall time below the request
        level — which matmuls, attention scores and norms burn it.
        """
        self.obs.attach_profiler(profiler)
        profiler.attach(self.network)

    @classmethod
    def from_model(cls, model, **kwargs) -> "InferenceEngine":
        """Build over a :class:`repro.model.lm.WisdomModel`-shaped object.

        Picks up its tokenizer, its name and the model's stop tokens — the
        end-of-text and packing-separator ids, stated here and nowhere
        else: ``WisdomModel.complete`` decodes through an engine built here,
        as does every server over a checkpoint.
        """
        tokenizer = model.tokenizer
        kwargs.setdefault(
            "stop_ids", frozenset({tokenizer.end_of_text_id, tokenizer.separator_id})
        )
        kwargs.setdefault("name", getattr(model, "name", "engine"))
        return cls(model.network, tokenizer, **kwargs)

    # -- token-id interface ---------------------------------------------------

    def _make_request(
        self,
        prompt_ids: list[int],
        max_new_tokens: int | None,
        stop_ids: frozenset[int] | set[int] | None,
        deadline_s: float | None,
        **fields,
    ) -> GenerationRequest:
        budget_request = max_new_tokens or self.default_max_new_tokens
        prompt, effective = plan_prompt(
            self.network.config.n_positions, prompt_ids, budget_request
        )
        request = GenerationRequest(
            request_id=self._next_request_id,
            prompt_ids=prompt,
            max_new_tokens=budget_request,
            effective_budget=effective,
            stop_ids=frozenset(stop_ids) if stop_ids is not None else self.default_stop_ids,
            deadline_s=deadline_s,
            **fields,
        )
        self._next_request_id += 1
        return request

    def _run(self, prompts, max_new_tokens, stop_ids, deadline_s, handles, **fields):
        """The one request lifecycle; a generator that yields after every step.

        Lock → mint (``fields`` go to every :class:`GenerationRequest`) →
        publish to ``handles`` → submit → step until the batcher drains →
        observe.  One unwinding rule for every way out — a step that
        raised, a crash seam, a consumer that closed the generator: cancel
        this caller's still-live requests and run one reap step (reaping
        precedes the decode seam, so it cannot re-raise an injected fault).
        The lock is never released with the caller's rows in the batch.
        """
        with self._lock:
            requests = [
                self._make_request(prompt, max_new_tokens, stop_ids, deadline_s, **fields)
                for prompt in prompts
            ]
            if handles is not None:
                handles.extend(requests)
            try:
                for request in requests:
                    self.batcher.submit(request)
                more = True
                while more:
                    more = self.batcher.step()
                    yield
            finally:
                live = [request for request in requests if request.cancel()]
                if live:
                    self.batcher.step()
                for request in requests:
                    if request.is_finished:
                        self._observe_request(request)

    def generate_batch(
        self,
        prompts: list[list[int]],
        max_new_tokens: int | None = None,
        stop_ids: frozenset[int] | set[int] | None = None,
        deadline_s: float | None = None,
        handles: list[GenerationRequest] | None = None,
    ) -> list[GenerationResult]:
        """Greedy-decode every prompt through the continuous batcher.

        Results come back in submission order and are token-identical to
        running the batch-1 reference decoder (:mod:`repro.nn.sampling`)
        per prompt — when nothing interferes.  ``deadline_s`` bounds each request's
        wall time (queueing included); a caller holding ``handles`` (the
        live :class:`GenerationRequest` objects, appended before decoding
        starts) may :meth:`~GenerationRequest.cancel` from another thread.
        Interfered-with requests come back with *partial* results carrying
        an abnormal ``stop_reason`` rather than raising — inspect
        ``request.outcome`` (via ``handles``) or the result's stop reason.
        """
        if not prompts:
            return []
        handles = handles if handles is not None else []
        for _ in self._run(prompts, max_new_tokens, stop_ids, deadline_s, handles):
            pass
        return [request.result for request in handles[-len(prompts) :]]

    def generate_pinned(
        self,
        prompt_ids: list[int],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> GenerationRequest:
        """Greedy-decode one prompt and pin the context it leaves in the prefix store.

        A keystroke session's request, with :meth:`generate_batch`'s
        lifecycle and tokens.  A normal finish sets ``request.path``, the
        pinned path's last node, kept until :meth:`unpin_path`; an abnormal
        one pins nothing.  DESIGN.md "One prefix store".
        """
        handle: list[GenerationRequest] = []
        for _ in self._run([prompt_ids], max_new_tokens, None, deadline_s, handle, pin=True):
            pass
        return handle[0]

    def unpin_path(self, path) -> None:
        """Take back the pin :meth:`generate_pinned` left on ``path`` (None: nothing)."""
        if path is not None:
            with self._lock:
                self.prefix_cache.unpin(path)

    def stream_ids(
        self,
        prompt_ids: list[int],
        max_new_tokens: int | None = None,
        stop_ids: frozenset[int] | set[int] | None = None,
        deadline_s: float | None = None,
        handle: list[GenerationRequest] | None = None,
    ):
        """Greedy-decode one prompt, yielding token bursts as they land.

        A generator over ``list[int]`` bursts: one token per plain decode
        step, up to ``k + 1`` per speculative step, the first of them the
        prefill's token.  The concatenation of every yielded burst is
        exactly ``generate_batch([prompt_ids])[0].token_ids`` — streaming
        changes delivery, never content.

        The engine lock is held from the first ``next()`` until the
        generator finishes or is closed, so a stream serialises with other
        callers exactly like ``generate_batch``.  Closing the generator
        mid-stream (client disconnect) unwinds the lifecycle: the request
        is cancelled and reaped, returning its KV slabs to the arena
        immediately, and terminates with the ``cancelled`` outcome.
        ``handle``, when given, receives the live request before decoding
        starts — e.g. for a deadline watchdog or an out-of-band
        :meth:`~GenerationRequest.cancel`.
        """
        pending: list[list[int]] = []
        fields = {"on_tokens": lambda _request, tokens: pending.append(tokens)}
        run = self._run([prompt_ids], max_new_tokens, stop_ids, deadline_s, handle, **fields)
        try:
            for _ in run:
                while pending:
                    yield pending.pop(0)
        finally:
            run.close()

    def _observe_request(self, request: GenerationRequest) -> None:
        """Fold a finished request into histograms and (if tracing) spans.

        Request phases interleave across the continuous batch, so the
        spans are recorded retroactively from the timestamps the request
        captured at each state transition — tracing reads clocks that were
        going to be read anyway and cannot perturb scheduling.
        """
        timings = request.timings()
        self._h_queue_wait.observe(timings["queued_s"])
        self._h_prefill.observe(timings["prefill_s"])
        if request.decode_started_at is not None:
            self._h_decode.observe(timings["decode_s"])
        self._c_requests.inc()
        self._c_generated.inc(len(request.generated))
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        root = tracer.record(
            "engine.request",
            request.submitted_at,
            request.finished_at,
            request_id=request.request_id,
            prompt_tokens=request.prompt_length,
            generated_tokens=len(request.generated),
            prefix_reused=request.prefix_reused,
            stop_reason=request.stop_reason,
        )
        if request.prefill_started_at is None:
            # Reaped straight from the queue (cancelled / expired / shed
            # before admission): its whole life was queue wait.
            tracer.record(
                "engine.queue_wait", request.submitted_at, request.finished_at, parent_id=root
            )
            return
        prefill_end = (
            request.decode_started_at
            if request.decode_started_at is not None
            else request.finished_at
        )
        tracer.record(
            "engine.queue_wait", request.submitted_at, request.prefill_started_at, parent_id=root
        )
        tracer.record(
            "engine.prefill",
            request.prefill_started_at,
            prefill_end,
            parent_id=root,
            tokens=request.prompt_length - request.prefix_reused,
            prefix_reused=request.prefix_reused,
        )
        if request.decode_started_at is not None:
            tracer.record(
                "engine.decode",
                request.decode_started_at,
                request.finished_at,
                parent_id=root,
                tokens=len(request.generated),
            )

    # -- text interface -------------------------------------------------------

    def complete_batch_detailed(
        self,
        prompts: list[str],
        max_new_tokens: int | None = None,
        deadline_s: float | None = None,
    ) -> list[dict]:
        """Tokenize, batch-decode, detokenize — keeping each request's disposition.

        Returns one dict per prompt with ``completion`` (possibly partial
        text), ``stop_reason``, ``outcome`` and ``ttft_s`` (time from
        submission to the first token, or None when prefill never produced
        one) — the serving layer routes on ``outcome`` (e.g. shed →
        fallback completer, deadline → 504) instead of parsing exceptions,
        and surfaces ``ttft_s`` for SLO accounting.
        """
        if self.tokenizer is None:
            raise EngineError("engine has no tokenizer; use generate_batch with token ids")
        encoded = [self.tokenizer.encode(prompt) for prompt in prompts]
        for prompt, ids in zip(prompts, encoded):
            if not ids:
                raise EngineError(f"prompt encodes to no tokens: {prompt!r}")
        handles: list[GenerationRequest] = []
        results = self.generate_batch(
            encoded, max_new_tokens, deadline_s=deadline_s, handles=handles
        )
        return [
            {
                "completion": self.tokenizer.decode(result.token_ids),
                "stop_reason": result.stop_reason,
                "outcome": request.outcome,
                "ttft_s": request.ttft_s,
            }
            for result, request in zip(results, handles)
        ]

    def abort_all(self) -> int:
        """Cancel every queued or decoding request, reap, and clear the prefix store.

        The fleet layer's crash path: when a replica is declared dead
        mid-decode, its engine may still hold live rows whose KV slabs
        pin arena blocks.  Cancelling them all and running one reap pass
        (no decode step runs once everything is cancelled) retires every
        request with the ``cancelled`` outcome and returns their slabs to
        the arena — the survivors'-side no-leak invariant the chaos suite
        asserts.  The prefix store is cleared under the same lock hold;
        pinned paths stay until their sessions close.  Returns the number
        of requests aborted.
        """
        with self._lock:
            live = list(self.batcher.queue) + [row.payload for row in self.batcher.batch.rows]
            for request in live:
                request.cancel()
            if live:
                self.batcher.step()
            self.prefix_cache.clear()
            return len(live)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Scheduler + prefix-store counters for ``/v1/stats``.

        Deliberately does NOT take the engine's request lock: that lock is
        held for an entire ``generate_batch`` call, so a stats probe (a
        health checker, the fleet router's aggregator) would stall behind
        whichever generation happens to be in flight.  Instead the batcher
        snapshot comes from its own ``stats_lock`` — a single consistent
        pass over the counters — and the arena / prefix-store reads are
        point-in-time reads of their own monotonic accounting.
        """
        report = self.batcher.stats()
        report["requests_submitted"] = self._next_request_id
        report["kv_arena"] = self.kv_arena.stats()
        report["prefix_cache"] = self.prefix_cache.stats()
        profiler = self.obs.profiler
        if profiler.enabled and profiler.total_calls:
            report["profile"] = {
                "ops_profiled": profiler.total_calls,
                "total_flops": profiler.total_flops,
                "alloc_high_water_bytes": profiler.alloc_high_water_bytes,
            }
        return report
