"""Decoding strategies over a :class:`repro.nn.transformer.DecoderLM`.

The paper evaluates with greedy decoding ("all results presented thereafter
were obtained using greedy decoding.  We would expect some improvement by
using random sampling or beam search"); greedy, temperature/top-k sampling,
and beam search are all provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.nn.transformer import DecoderLM
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class GenerationResult:
    """Token ids produced after the prompt, plus the stop reason.

    ``effective_budget`` is the number of tokens the decode loop could
    actually produce once the (possibly truncated) prompt claimed its share
    of the context window — ``min(max_new_tokens, n_positions - len(prompt))``.
    When it is smaller than the requested ``max_new_tokens`` the generation
    ends with ``context_full`` rather than ``max_tokens``.
    """

    token_ids: list[int]
    stop_reason: str  # "stop_token" | "max_tokens" | "context_full"
    effective_budget: int = 0


def plan_prompt(window: int, prompt_ids: list[int], max_new_tokens: int) -> tuple[list[int], int]:
    """Left-truncate a prompt into ``window`` while reserving decode room.

    The paper's inference setup left-truncates long prompts; a naive
    truncation to ``window - 1`` leaves room for exactly one new token, so
    a long prompt with a large ``max_new_tokens`` silently stopped with
    ``context_full`` after a single token.  Instead we reserve
    ``min(max_new_tokens, window // 2)`` positions for generation — the
    full requested budget when it fits, never more than half the window so
    a greedy budget cannot erase the prompt context.

    Returns the truncated prompt and the effective token budget.
    """
    if max_new_tokens < 1:
        raise GenerationError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    reserved = min(max_new_tokens, max(1, window // 2))
    keep = window - reserved
    if len(prompt_ids) > keep:
        # Left truncation, as in the paper's inference setup.
        prompt_ids = prompt_ids[len(prompt_ids) - keep:]
    if not prompt_ids:
        raise GenerationError("prompt is empty after truncation")
    effective_budget = min(max_new_tokens, window - len(prompt_ids))
    return list(prompt_ids), effective_budget


def advance(
    generated: list[int],
    next_id: int,
    stop_ids: frozenset[int] | set[int],
    max_new_tokens: int,
    prompt_length: int,
    window: int,
) -> str | None:
    """Apply one picked token to ``generated``; return the stop reason, if any.

    The one statement of the stop policy every decode loop shares: a stop
    token ends the generation without being emitted, an exhausted budget
    ends it with ``max_tokens``, and a full context window ends it with
    ``context_full``.  The budget is checked first, so ``context_full``
    always means the window cut generation short of the budget.
    """
    if next_id in stop_ids:
        return "stop_token"
    generated.append(next_id)
    if len(generated) >= max_new_tokens:
        return "max_tokens"
    if prompt_length + len(generated) >= window:
        return "context_full"
    return None


def _generate(model, prompt_ids, max_new_tokens, stop_ids, tracer, name, pick) -> GenerationResult:
    """Batch-1 prefill + decode with KV cache; ``pick`` maps ``logits[0, -1]``
    to the next token id — the only thing greedy and sampled decoding differ in."""
    tracer = tracer if tracer is not None else NULL_TRACER
    window = model.config.n_positions
    prompt, budget = plan_prompt(window, prompt_ids, max_new_tokens)
    with tracer.span(name, prompt_tokens=len(prompt)) as span:
        with tracer.span("sampling.prefill", tokens=len(prompt)):
            caches = model.new_cache()
            logits = model.forward_incremental(np.array([prompt], dtype=np.int64), caches)
        generated: list[int] = []
        with tracer.span("sampling.decode"):
            while True:
                next_id = pick(logits[0, -1])
                reason = advance(generated, next_id, stop_ids, max_new_tokens, len(prompt), window)
                if reason is not None:
                    break
                logits = model.forward_incremental(np.array([[next_id]], dtype=np.int64), caches)
        span.set(tokens=len(generated), stop_reason=reason)
        return GenerationResult(generated, reason, budget)


def generate_greedy(
    model: DecoderLM,
    prompt_ids: list[int],
    max_new_tokens: int,
    stop_ids: frozenset[int] | set[int] = frozenset(),
    tracer: Tracer | None = None,
) -> GenerationResult:
    """Greedy decoding with KV cache; stops at a stop token, the token
    budget, or a full context window.

    ``tracer`` (optional, default-off) records ``sampling.greedy`` with
    ``sampling.prefill`` / ``sampling.decode`` children; tracing only
    reads the monotonic clock, so the produced tokens are identical with
    or without it.
    """

    def pick(row: np.ndarray) -> int:
        return int(row.argmax())

    return _generate(model, prompt_ids, max_new_tokens, stop_ids, tracer, "sampling.greedy", pick)


def generate_sampled(
    model: DecoderLM,
    prompt_ids: list[int],
    max_new_tokens: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_k: int = 0,
    stop_ids: frozenset[int] | set[int] = frozenset(),
    tracer: Tracer | None = None,
) -> GenerationResult:
    """Temperature / top-k sampling with KV cache."""
    if temperature <= 0.0:
        raise GenerationError("temperature must be positive; use generate_greedy for argmax")

    def pick(row: np.ndarray) -> int:
        scores = row.astype(np.float64) / temperature
        if top_k > 0 and top_k < scores.shape[0]:
            cutoff = np.partition(scores, -top_k)[-top_k]
            scores = np.where(scores < cutoff, -np.inf, scores)
        scores -= scores.max()
        probabilities = np.exp(scores)
        probabilities /= probabilities.sum()
        return int(rng.choice(scores.shape[0], p=probabilities))

    return _generate(model, prompt_ids, max_new_tokens, stop_ids, tracer, "sampling.sampled", pick)


def generate_beam(
    model: DecoderLM,
    prompt_ids: list[int],
    max_new_tokens: int,
    beam_width: int = 3,
    stop_ids: frozenset[int] | set[int] = frozenset(),
    length_penalty: float = 0.0,
) -> GenerationResult:
    """Beam search (no cache sharing across beams; intended for small beams).

    Scores are mean-adjusted by ``length_penalty`` (0 = pure log-prob sum).
    """
    window = model.config.n_positions
    prompt, budget = plan_prompt(window, prompt_ids, max_new_tokens)
    beams: list[tuple[float, list[int], bool]] = [(0.0, [], False)]
    for _ in range(max_new_tokens):
        candidates: list[tuple[float, list[int], bool]] = []
        for score, tokens, finished in beams:
            if finished:
                candidates.append((score, tokens, True))
                continue
            sequence = prompt + tokens
            if len(sequence) >= window:
                candidates.append((score, tokens, True))
                continue
            logits = model.forward(np.array([sequence], dtype=np.int64), training=False)
            row = logits[0, -1].astype(np.float64)
            row -= row.max()
            log_probabilities = row - np.log(np.exp(row).sum())
            top = np.argsort(log_probabilities)[::-1][:beam_width]
            for token_id in top:
                token_id = int(token_id)
                new_score = score + float(log_probabilities[token_id])
                if token_id in stop_ids:
                    candidates.append((new_score, tokens, True))
                else:
                    candidates.append((new_score, tokens + [token_id], False))
        def adjusted(entry: tuple[float, list[int], bool]) -> float:
            score, tokens, _ = entry
            denominator = max(1, len(tokens)) ** length_penalty
            return score / denominator
        candidates.sort(key=adjusted, reverse=True)
        beams = candidates[:beam_width]
        if all(finished for _, _, finished in beams):
            break
    best_score, best_tokens, best_finished = beams[0]
    del best_score
    reason = "stop_token" if best_finished else "max_tokens"
    return GenerationResult(best_tokens, reason, budget)
