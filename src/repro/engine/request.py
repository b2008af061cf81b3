"""Request lifecycle for the continuous-batching inference engine.

A :class:`GenerationRequest` moves through the states

    QUEUED -> PREFILL -> DECODE -> FINISHED

QUEUED requests wait for batch capacity; PREFILL runs the prompt through
the model once to warm the request's KV cache (seeded with whatever the
prefix store already holds of it); DECODE begins the moment prefill
yields the first token — the request then occupies a row of the active
batch and receives tokens every engine step, unless that first token
already ended it; FINISHED requests carry a
:class:`~repro.nn.sampling.GenerationResult`, and one that completed
normally has left its fed context in the prefix store.

A request can leave the pipeline early from *any* pre-finished state:

* its client calls :meth:`cancel` (thread-safe — a flag the scheduler
  checks every step, so cancellation retires a mid-decode row without
  waiting for its budget to drain);
* its deadline expires (``deadline_s`` is relative to submission and
  measured on the shared :mod:`repro.faults.clock`, so expiry includes
  queueing time and is exactly testable under a fake clock);
* the scheduler sheds it (admission failed, e.g. KV slab allocation).

Every terminal request reports exactly one :attr:`outcome` —
``completed``, ``cancelled``, ``deadline_exceeded`` or ``shed`` — the
invariant the chaos suite asserts for arbitrary fault schedules.

Timing is recorded at every transition so the engine can report queueing
delay, prefill latency and decode latency separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import EngineError
from repro.faults import clock
from repro.nn.sampling import GenerationResult

#: Terminal stop reasons that are *not* normal completions.
ABNORMAL_STOP_REASONS = frozenset({"cancelled", "deadline_exceeded", "shed"})


class RequestState(enum.Enum):
    """Where a request currently sits in the engine."""

    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"


@dataclass
class GenerationRequest:
    """One generation job tracked by the engine.

    Attributes:
        request_id: engine-assigned monotonically increasing id.
        prompt_ids: the prompt *after* budget-aware left truncation.
        max_new_tokens: the caller's requested budget.
        effective_budget: tokens actually producible in the window
            (``min(max_new_tokens, n_positions - len(prompt_ids))``).
        stop_ids: token ids that terminate generation (not emitted).
        deadline_s: optional wall budget relative to submission; the
            absolute expiry is :attr:`deadline_at`.
        generated: tokens produced so far.
        on_tokens: optional callback ``fn(request, tokens)`` the scheduler
            invokes with each newly appended token burst (one token per
            plain decode step, up to ``k + 1`` per speculative step, and
            the first token at prefill).  Called inline on the scheduler
            thread — keep it cheap; exceptions are swallowed so one
            stream's consumer cannot poison unrelated batch rows.
        prefix_reused: prompt tokens whose K/V came from the prefix store.
        pin: a keystroke session's request — a normal finish pins the path
            it leaves in the prefix store, and sets :attr:`path`.
        path: the prefix-store node that pin is counted on; the caller
            takes it back with ``InferenceEngine.unpin_path``.
    """

    request_id: int
    prompt_ids: list[int]
    max_new_tokens: int
    effective_budget: int
    stop_ids: frozenset[int] = frozenset()
    deadline_s: float | None = None
    state: RequestState = RequestState.QUEUED
    generated: list[int] = field(default_factory=list)
    stop_reason: str | None = None
    prefix_reused: int = 0
    pin: bool = False
    submitted_at: float = field(default_factory=clock.now)
    deadline_at: float | None = None
    prefill_started_at: float | None = None
    decode_started_at: float | None = None
    finished_at: float | None = None
    on_tokens: object | None = field(default=None, repr=False)
    path: object | None = field(default=None, repr=False)
    _cancel_requested: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_s is not None:
            if self.deadline_s <= 0:
                raise EngineError(f"deadline_s must be positive, got {self.deadline_s}")
            if self.deadline_at is None:
                self.deadline_at = self.submitted_at + self.deadline_s

    @property
    def prompt_length(self) -> int:
        return len(self.prompt_ids)

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def outcome(self) -> str | None:
        """Terminal disposition, or None while the request is live.

        One of ``completed`` / ``cancelled`` / ``deadline_exceeded`` /
        ``shed`` — every admitted request ends in exactly one of these.
        """
        if not self.is_finished or self.stop_reason is None:
            return None
        if self.stop_reason in ABNORMAL_STOP_REASONS:
            return self.stop_reason
        return "completed"

    @property
    def result(self) -> GenerationResult:
        """The finished generation; raises until the request terminates.

        Abnormal terminations yield the *partial* generation with the
        abnormal stop reason — callers decide whether partial output is
        usable (the serving cache, for one, never stores it).
        """
        if not self.is_finished or self.stop_reason is None:
            raise EngineError(f"request {self.request_id} is {self.state.value}, not finished")
        return GenerationResult(list(self.generated), self.stop_reason, self.effective_budget)

    # -- streaming ----------------------------------------------------------

    def emit_tokens(self, tokens: list[int]) -> None:
        """Deliver a freshly appended token burst to :attr:`on_tokens`.

        A raising callback must not take down the scheduler step that was
        advancing other rows, so errors are swallowed here; a consumer
        that wants the stream torn down cancels the request instead.
        """
        if self.on_tokens is None or not tokens:
            return
        try:
            self.on_tokens(self, list(tokens))
        except Exception:
            pass

    # -- cancellation / deadlines -------------------------------------------

    def cancel(self) -> bool:
        """Ask the scheduler to retire this request; safe from any thread.

        Returns False (no-op) once the request has already finished.
        Cancellation is cooperative: the flag is honoured at the next
        scheduler step, so a cancelled decode row frees its KV slabs
        within one step.
        """
        if self.is_finished:
            return False
        self._cancel_requested = True
        return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def expired(self, now: float | None = None) -> bool:
        """True once the deadline (if any) is at or behind the clock."""
        if self.deadline_at is None:
            return False
        return (clock.now() if now is None else now) >= self.deadline_at

    # -- transitions --------------------------------------------------------

    def begin_prefill(self) -> None:
        if self.state is not RequestState.QUEUED:
            raise EngineError(f"request {self.request_id}: prefill from state {self.state.value}")
        self.state = RequestState.PREFILL
        self.prefill_started_at = clock.now()

    def begin_decode(self) -> None:
        if self.state is not RequestState.PREFILL:
            raise EngineError(f"request {self.request_id}: decode from state {self.state.value}")
        self.state = RequestState.DECODE
        self.decode_started_at = clock.now()

    def finish(self, stop_reason: str) -> None:
        if self.state is RequestState.FINISHED:
            raise EngineError(f"request {self.request_id} already finished")
        self.state = RequestState.FINISHED
        self.stop_reason = stop_reason
        self.finished_at = clock.now()

    # -- timing -------------------------------------------------------------

    def timings(self) -> dict[str, float]:
        """Seconds spent queued / in prefill / decoding (so far)."""
        now = clock.now()
        end = self.finished_at if self.finished_at is not None else now
        prefill_start = self.prefill_started_at if self.prefill_started_at is not None else end
        decode_start = self.decode_started_at
        queued_s = max(0.0, prefill_start - self.submitted_at)
        if decode_start is None:
            prefill_s = max(0.0, end - prefill_start) if self.prefill_started_at is not None else 0.0
            decode_s = 0.0
        else:
            prefill_s = max(0.0, decode_start - prefill_start)
            decode_s = max(0.0, end - decode_start)
        return {"queued_s": queued_s, "prefill_s": prefill_s, "decode_s": decode_s}

    @property
    def ttft_s(self) -> float | None:
        """Submission to first token, on every path; None iff prefill never
        produced one (reaped while queued, or shed)."""
        if self.decode_started_at is None:
            return None
        return self.decode_started_at - self.submitted_at
