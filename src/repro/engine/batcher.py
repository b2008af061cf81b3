"""Continuous-batching scheduler.

The batcher owns a FIFO queue of :class:`GenerationRequest` objects and a
:class:`DecodingBatch` of sequences currently decoding.  Unlike static
batching — where a batch is fixed at launch and the fastest request waits
for the slowest — admission here is *continuous*: every scheduler step
first retires finished rows, then pulls queued requests into the freed
capacity, then runs exactly one batched decode step.  A request therefore
joins the active batch as soon as there is room, mid-flight, without
waiting for the current occupants to drain.

Admission is capped by ``max_batch_size`` concurrent rows, one KV slot
each.  That also bounds KV-cache memory: ``plan_prompt`` fits every
request's prompt plus budget inside the position window, the width of a
slot, so the batch holds ``max_batch_size * n_positions`` columns per
layer.

Prefill runs per request at batch size 1 (bit-identical to sequential
decoding), in the request's own batch slot, atop whatever the prefix store
already holds of the prompt; decode runs batched.  This mirrors the
prefill/decode split of modern serving engines at laptop scale.

Every request takes the same path through the prefix store: admission
opens the batch if it is empty (the one step that allocates), gathers the
longest stored path straight into the next free slot row — one copy per
hit, none per miss — and prefills the rest there.  A request that
completes normally, on its first token or later, leaves its fed context
(prompt plus every generated token with K/V) in the store as its row
retires.  A keystroke session's request pins that path.

Robustness: every step first *reaps* — cancelled or deadline-expired
requests are retired from the queue and the active batch before any new
work runs, so a cancelled mid-decode row frees its KV slabs within one
step.  Admission failures (opening the batch's slabs, injected faults)
*shed* the one request being admitted instead of propagating; decode-step
faults are transient (the step is skipped and retried).  Nothing that finished
abnormally is inserted, so partial work never seeds future prefills.  All
timing reads the swappable :mod:`repro.faults.clock`, which is what makes
deadline behaviour exact under a fake clock.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.engine.batched_decode import PAD_TOKEN_ID, DecodingBatch, prefill_single
from repro.engine.prefix_cache import PrefixCache
from repro.engine.request import ABNORMAL_STOP_REASONS, GenerationRequest, RequestState
from repro.engine.speculative import DraftModel
from repro.errors import EngineError, InjectedFault
from repro.faults import clock
from repro.faults.inject import fire, shield
from repro.nn.kv_arena import KVArena
from repro.nn.sampling import advance
from repro.nn.transformer import DecoderLM
from repro.obs import Observability
from repro.obs.metrics import linear_buckets


class ContinuousBatcher:
    """Admits queued requests into a running decode batch."""

    def __init__(
        self,
        model: DecoderLM,
        max_batch_size: int = 8,
        prefix_cache: PrefixCache | None = None,
        obs: Observability | None = None,
        arena: KVArena | None = None,
        speculative_k: int = 0,
        draft_model: DraftModel | None = None,
    ):
        if max_batch_size < 1:
            raise EngineError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.model = model
        if speculative_k < 0:
            raise EngineError(f"speculative_k must be >= 0, got {speculative_k}")
        if speculative_k and draft_model is None:
            raise EngineError("speculative_k > 0 requires a draft_model")
        self.speculative_k = speculative_k
        self.draft_model = draft_model
        self.max_batch_size = max_batch_size
        self.prefix_cache = PrefixCache(0) if prefix_cache is None else prefix_cache
        self.batch = DecodingBatch(model, max_batch_size, arena)
        self.queue: deque[GenerationRequest] = deque()
        # -- accounting --
        # Every count is a registry counter and nothing else (DESIGN.md
        # "Counting").  ``stats_lock`` guards them, NOT the scheduler state:
        # counts ``stats()`` reports together are bumped inside one hold and
        # ``stats()`` reads under it, so a snapshot never waits for an
        # in-flight generation (the engine's coarse lock is held for the
        # *entire* ``generate_batch``, which could be seconds).  Re-entrant:
        # the decode step books finished requests inside its publish pass.
        self.stats_lock = threading.RLock()
        self.peak_batch_size = 0  # a max, not a count
        self.obs = obs if obs is not None else Observability()
        metrics = self.obs.metrics
        self._h_prefill_forward = metrics.histogram("engine.prefill_forward_s")
        self._h_decode_step = metrics.histogram("engine.decode_step_s")
        self._h_per_token = metrics.histogram("engine.decode_per_token_s")
        self._h_occupancy = metrics.histogram(
            "engine.batch_occupancy", linear_buckets(1, 1, max(16, self.max_batch_size))
        )
        self._c_admitted = metrics.counter("engine.requests_admitted")
        self._c_retired = metrics.counter("engine.requests_retired")
        self._c_abnormal = {  # engine.requests_{cancelled,deadline_exceeded,shed}
            reason: metrics.counter(f"engine.requests_{reason}")
            for reason in sorted(ABNORMAL_STOP_REASONS)
        }
        self._c_decode_faults = metrics.counter("engine.decode_faults")
        self._c_decode_steps = metrics.counter("engine.decode_steps")
        # sum over steps of active rows; occupancy = ticks / steps
        self._c_occupancy_ticks = metrics.counter("engine.occupancy_ticks")
        self._c_decode_tokens = metrics.counter("engine.decode_tokens")
        self._c_prefill_tokens = metrics.counter("engine.prefill_tokens")
        self._c_prefix_reused = metrics.counter("engine.prefix_tokens_reused")
        if speculative_k:
            self._c_spec_steps = metrics.counter("engine.speculative_steps")
            # row-steps verified; mean accept length = (accepted + rows) / rows
            self._c_spec_row_steps = metrics.counter("engine.speculative_row_steps")
            # draft positions verified (k per row per speculative step)
            self._c_draft_proposed = metrics.counter("engine.draft_tokens_proposed")
            # of those, accepted (matched the greedy chain)
            self._c_draft_accepted = metrics.counter("engine.draft_tokens_accepted")
            self._h_accept_length = metrics.histogram(
                "engine.speculative_accept_length",
                linear_buckets(1, 1, speculative_k + 1),
            )

    # -- introspection -------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def active_size(self) -> int:
        return len(self.batch)

    # -- scheduling ----------------------------------------------------------

    def submit(self, request: GenerationRequest) -> None:
        if request.state is not RequestState.QUEUED:
            raise EngineError(f"request {request.request_id} is {request.state.value}, not queued")
        self.queue.append(request)

    # -- termination ---------------------------------------------------------

    def book(self, request: GenerationRequest) -> None:
        """Count one finished request: the only place an outcome is booked.

        Each of the three sites that finish a request — abnormal
        termination, a first-token finish at admission, the decode step's
        publish pass — follows it with this call and nothing else that
        counts, so submitted == Σ outcomes at quiescence.  One hold for
        the pair: ``stats()`` derives ``completed_requests`` from it.
        """
        with self.stats_lock:
            self._c_retired.inc()
            if request.stop_reason in ABNORMAL_STOP_REASONS:
                self._c_abnormal[request.stop_reason].inc()

    def _finish_abnormal(self, request: GenerationRequest, reason: str) -> None:
        """Terminate a live request with an abnormal outcome."""
        request.finish(reason)
        self.book(request)

    def _reap_queue(self, now: float) -> None:
        """Finish queued requests that were cancelled or expired while waiting."""
        survivors: deque[GenerationRequest] = deque()
        for request in self.queue:
            if request.cancel_requested:
                self._finish_abnormal(request, "cancelled")
            elif request.expired(now):
                self._finish_abnormal(request, "deadline_exceeded")
            else:
                survivors.append(request)
        self.queue = survivors

    def _reap_active(self, now: float) -> None:
        """Retire cancelled / deadline-expired rows from the active batch."""
        finished: list[int] = []
        for position, row in enumerate(self.batch.rows):
            request: GenerationRequest = row.payload
            if request.cancel_requested:
                self._finish_abnormal(request, "cancelled")
                finished.append(position)
            elif request.expired(now):
                self._finish_abnormal(request, "deadline_exceeded")
                finished.append(position)
        if finished:
            self._retire(finished)

    def _retire(self, positions: list[int]) -> None:
        """Drop rows from the batch; a completed row first leaves its fed
        context in the prefix store — the only place the store is inserted
        into.  Shielded: the copies allocate, and allocation faults belong
        at admission."""
        slots = self.batch.caches
        for position in positions:
            request = self.batch.rows[position].payload
            if request.outcome == "completed":
                fed = (request.prompt_ids + request.generated)[: slots[0].lengths[position]]
                with shield():
                    path = self.prefix_cache.insert(fed, slots, position, pin=request.pin)
                if request.pin:
                    request.path = path
        self.batch.retire(positions)

    def _admit_one(self) -> None:
        request = self.queue.popleft()
        request.begin_prefill()
        self._c_admitted.inc()
        try:
            # Opening the batch is the only step that allocates, so it
            # comes before the store walk: a request it sheds books no reuse.
            opened = self.batch.open_row()
            match = self.prefix_cache.lookup(request.prompt_ids)
            forward_started = clock.now()
            if match is not None:
                request.prefix_reused = match[0]
                self._c_prefix_reused.inc(request.prefix_reused)
                self.prefix_cache.gather(match, opened)
            first_token, prefilled = prefill_single(self.model, request.prompt_ids, opened)
        except BaseException as error:
            # The half-open row is dropped: an empty batch closes and its
            # slabs go back to the arena.  An allocation or injected fault
            # sheds the one chargeable request; the batch and the rest of
            # the queue are untouched.
            self.batch.close_if_empty()
            if not isinstance(error, (InjectedFault, MemoryError)):
                raise
            self._finish_abnormal(request, "shed")
            return
        self._h_prefill_forward.observe(clock.now() - forward_started)
        self._c_prefill_tokens.inc(prefilled)
        row = self.batch.admit(opened, pending=first_token, payload=request)
        request.begin_decode()  # the first token exists: TTFT is defined from here
        reason = advance(
            request.generated,
            first_token,
            request.stop_ids,
            request.max_new_tokens,
            request.prompt_length,
            self.model.config.n_positions,
        )
        request.emit_tokens(request.generated)
        if reason is not None:
            # Finished on its very first token: its row retires like any other.
            request.finish(reason)
            self.book(request)
            self._retire([len(self.batch.rows) - 1])
            return
        if self.speculative_k:
            # Per-request draft state: the context the draft model sees —
            # prompt plus everything generated, pending token included.
            row.context = list(request.prompt_ids) + list(request.generated)
        with self.stats_lock:
            self.peak_batch_size = max(self.peak_batch_size, self.active_size)

    # -- speculation ---------------------------------------------------------

    def _plan_drafts(self) -> list[list[int]] | None:
        """Propose one same-length draft per active row, or None to step plainly.

        The verified width is capped three ways: the configured
        ``speculative_k``, the position window (the last fed draft must
        sit below ``n_positions``), and the largest remaining token
        budget in the batch (the verify forward emits up to ``k + 1``
        tokens; drafting past every row's budget is wasted width).  Rows
        whose drafter proposes fewer than ``k`` tokens are padded with
        ``PAD_TOKEN_ID`` — a pad is just a draft that only gets accepted
        if it happens to *be* the greedy token, so identity still holds.
        """
        rows = self.batch.rows
        window = self.model.config.n_positions
        k = min(
            self.speculative_k,
            window - 1 - self.batch.caches[0].length,
            max(row.payload.max_new_tokens - len(row.payload.generated) for row in rows) - 1,
        )
        if k < 1:
            return None
        proposals = [list(self.draft_model.propose(row.context, k))[:k] for row in rows]
        k = min(k, max(len(proposal) for proposal in proposals))
        if k < 1:
            return None  # no drafter had an opinion; a plain step is cheaper
        return [
            proposal[:k] + [PAD_TOKEN_ID] * (k - len(proposal[:k])) for proposal in proposals
        ]

    def step(self) -> bool:
        """Reap, admit what fits, then run one batched decode step.

        Returns True while there is more work (active rows or queued
        requests), False once fully drained.  An injected decode-step
        fault is transient: the step is skipped (no state was touched)
        and retried on the next call.
        """
        now = clock.now()
        self._reap_active(now)
        if self.queue:
            self._reap_queue(now)
            while self.queue and self.active_size < self.max_batch_size:
                self._admit_one()
            now = clock.now()  # prefill took time; the decode step starts here
        rows = self.batch.rows
        if not rows:
            return bool(self.queue)
        try:
            # The seam fires *before* the drafts and the model forward: a
            # raising fault skips the whole step, leaving per-layer caches
            # consistent, and the retry recomputes identical drafts from
            # the identical contexts (draft models are pure), so chaos
            # replay stays byte-identical with speculation enabled.
            fire("engine.decode_step", batch=len(rows))
            drafts = self._plan_drafts() if self.speculative_k else None
            if drafts is not None:
                emitted = self.batch.speculative_step(drafts)
            else:
                emitted = [[token] for token in self.batch.step()]
        except InjectedFault:
            self._c_decode_faults.inc()
            return True
        step_ended = clock.now()
        window = self.model.config.n_positions
        total_emitted = 0
        finished: dict[int, str] = {}  # batch position -> stop reason
        for position, tokens in enumerate(emitted):
            row = rows[position]
            request: GenerationRequest = row.payload
            generated = request.generated
            appended_from = len(generated)
            total_emitted += len(tokens)
            for next_id in tokens:
                reason = advance(
                    generated,
                    next_id,
                    request.stop_ids,
                    request.max_new_tokens,
                    len(request.prompt_ids),
                    window,
                )
                if reason is not None:
                    finished[position] = reason
                    break
            else:
                row.pending = next_id
                if row.context is not None:
                    row.context.extend(tokens)
            if request.on_tokens is not None:
                request.emit_tokens(generated[appended_from:])
        self._h_decode_step.observe(step_ended - now)
        self._h_per_token.observe((step_ended - now) / total_emitted)
        self._h_occupancy.observe(len(emitted))
        if drafts is not None:
            for tokens in emitted:
                self._h_accept_length.observe(len(tokens))
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.record("engine.decode_step", now, step_ended, batch=len(emitted))
        # Publish the whole step's accounting in one lock pass so a
        # concurrent ``stats()`` never observes tokens from a step whose
        # completions it hasn't seen yet (or vice versa).
        with self.stats_lock:
            self._c_decode_steps.inc()
            self._c_occupancy_ticks.inc(len(emitted))
            self._c_decode_tokens.inc(total_emitted)
            if drafts is not None:
                self._c_spec_steps.inc()
                self._c_spec_row_steps.inc(len(emitted))
                self._c_draft_proposed.inc(len(drafts[0]) * len(emitted))
                self._c_draft_accepted.inc(total_emitted - len(emitted))
            for position, reason in finished.items():
                request = rows[position].payload
                request.finish(reason)
                self.book(request)
        if finished:
            self._retire(list(finished))
        return bool(self.batch.rows or self.queue)

    def stats(self) -> dict:
        """One mutually-consistent snapshot of the scheduler counters.

        A read of the registry's counters under :attr:`stats_lock` — the
        lock their grouped bumps hold, never the engine's request lock —
        so callers (``/v1/stats`` handlers, the fleet router's aggregator)
        get a coherent read mid-decode without blocking behind it.
        Completions, means and rates are derived here, not stored.
        """
        with self.stats_lock:
            abnormal = {reason: counter.value for reason, counter in self._c_abnormal.items()}
            decode_steps = self._c_decode_steps.value
            snapshot = {
                "queue_depth": self.queue_depth,
                "active_requests": self.active_size,
                "completed_requests": self._c_retired.value - sum(abnormal.values()),
                "cancelled_requests": abnormal["cancelled"],
                "deadline_expired_requests": abnormal["deadline_exceeded"],
                "shed_requests": abnormal["shed"],
                "decode_faults": self._c_decode_faults.value,
                "decode_steps": decode_steps,
                "decode_tokens": self._c_decode_tokens.value,
                "prefill_tokens": self._c_prefill_tokens.value,
                "prefix_tokens_reused": self._c_prefix_reused.value,
                "mean_batch_occupancy": (
                    self._c_occupancy_ticks.value / decode_steps if decode_steps else 0.0
                ),
                "peak_batch_size": self.peak_batch_size,
                "max_batch_size": self.max_batch_size,
            }
            if self.speculative_k:
                proposed = self._c_draft_proposed.value
                accepted = self._c_draft_accepted.value
                row_steps = self._c_spec_row_steps.value
                snapshot["speculative"] = {
                    "k": self.speculative_k,
                    "draft_model": getattr(
                        self.draft_model, "name", type(self.draft_model).__name__
                    ),
                    "steps": self._c_spec_steps.value,
                    "proposed_tokens": proposed,
                    "accepted_tokens": accepted,
                    "acceptance_rate": accepted / proposed if proposed else 0.0,
                    "mean_accept_length": (
                        (accepted + row_steps) / row_steps if row_steps else 0.0
                    ),
                }
            return snapshot
