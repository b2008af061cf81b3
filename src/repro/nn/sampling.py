"""Greedy decoding over a :class:`repro.nn.transformer.DecoderLM`, and the
prompt plan and stop policy every decode loop shares.

The paper evaluates with greedy decoding only ("all results presented
thereafter were obtained using greedy decoding"), so greedy is the one
strategy here.  :func:`generate_greedy` is the batch-1 oracle that
``bench/loadgen.py``, the engine chaos harness and the conformance suites
hold the one production loop, ``ContinuousBatcher.step``, to; nothing
serves or scores through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.nn.transformer import DecoderLM


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


def generate_greedy(
    model: DecoderLM,
    prompt_ids: list[int],
    max_new_tokens: int,
    stop_ids: frozenset[int] | set[int] = frozenset(),
) -> GenerationResult:
    """Greedy decoding with KV cache; stops at a stop token, the token
    budget, or a full context window."""
    window = model.config.n_positions
    prompt, budget = plan_prompt(window, prompt_ids, max_new_tokens)
    caches = model.new_cache()
    logits = model.forward_incremental(np.array([prompt], dtype=np.int64), caches)
    generated: list[int] = []
    while True:
        next_id = int(logits[0, -1].argmax())
        reason = advance(generated, next_id, stop_ids, max_new_tokens, len(prompt), window)
        if reason is not None:
            return GenerationResult(generated, reason, budget)
        logits = model.forward_incremental(np.array([[next_id]], dtype=np.int64), caches)
