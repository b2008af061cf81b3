"""Batched KV-cache decoding over a :class:`~repro.nn.transformer.DecoderLM`.

The decode-side substrate of the continuous-batching engine.  Rows of the
active batch decode in lockstep, one KV *slot* per row: every layer holds
one :class:`~repro.nn.kv_arena.SlotKVCache`, a slab of ``slots`` rows by
the position window, acquired when the first row is admitted and released
when the batch drains.  Row ``b`` owns columns ``[0, length_b)`` of slot
``b``, so a token's cache column is its rotary position::

    slot 0   [ row 0: prompt + fed tokens ......... | stale ]
    slot 1   [ row 1 ...... | stale                          ]
    slot 2   [ free                                          ]

A decode step is one batched ``forward_incremental`` that writes each
row's new column at that row's own offset; when rows differ in length
the slot caches say so, and key ``j`` is visible to new token ``i`` of
row ``b`` iff ``j <= length_b + i``.  Nothing is padded, re-packed or grown:
admission prefills a request in place in the next free slot, through a
batch-1 view (:class:`~repro.nn.kv_arena.SlotRow`) that a prefix-store
hit's match was gathered into, retirement moves the last row into the
freed slot, and a speculative rollback just lowers a row's length —
copies per event, never per token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError
from repro.nn.kv_arena import KVArena, KVCache, SlotKVCache, SlotRow
from repro.nn.transformer import DecoderLM

PAD_TOKEN_ID = 0  # pads a short draft: accepted only if it is the greedy token


@dataclass
class BatchRow:
    """One active sequence in the decoding batch."""

    payload: object  # caller-owned (the engine stores its GenerationRequest here)
    pending: int  # last sampled token; its K/V joins the cache on the next step
    # Per-request draft state: the token context (prompt + generated so
    # far, pending included) that speculative callers hand to the draft
    # model.  None when the batch runs without speculation.
    context: list[int] | None = None


def prefill_single(
    model: DecoderLM, prompt_ids: list[int], caches: list[KVCache] | list[SlotRow]
) -> tuple[int, int]:
    """Prefill one prompt at batch size 1, appending past what the per-layer ``caches`` hold.

    In the engine ``caches`` are a slot row (:meth:`DecodingBatch.open_row`).
    Returns ``(first_token, prefilled)``, ``prefilled`` being the prompt
    tokens run through the model.  Batch-1 prefill is bit-identical to the
    batch-1 reference decoder's prefill (:mod:`repro.nn.sampling`), which
    is what makes engine outputs token-identical to sequential decoding.
    """
    suffix = prompt_ids[caches[0].length :]
    if not suffix:
        raise EngineError("prefix cache covered the whole prompt; nothing to prefill")
    logits = model.forward_incremental(np.array([suffix], dtype=np.int64), caches)
    return int(logits[0, -1].argmax()), len(suffix)


class DecodingBatch:
    """Lockstep decoding of up to ``slots`` rows, one KV slot per row."""

    def __init__(self, model: DecoderLM, slots: int, arena: KVArena | None = None):
        self.model = model
        self.slots = slots
        self.arena = arena
        self.caches: list[SlotKVCache] = []  # one per layer while any row is live
        self.rows: list[BatchRow] = []  # row b decodes in slot b
        self._pending = np.empty((slots, 1), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.rows)

    # -- admission ----------------------------------------------------------

    def open_row(self) -> list[SlotRow]:
        """Per layer, a batch-1 view of the next free slot, for a prefill to write through.

        The first row opens the batch, acquiring the slot slabs in layer
        order, so an allocation fault is charged to the request being
        admitted (claimed slabs go back first); a row joining allocates nothing.
        """
        if len(self.rows) == self.slots:
            raise EngineError(f"all {self.slots} slots are taken")
        if not self.caches:
            config = self.model.config
            shape = (config.n_heads, config.dim // config.n_heads, config.n_positions)
            try:
                for _ in self.model.blocks:
                    self.caches.append(SlotKVCache(self.arena, self.slots, *shape))
            except BaseException:
                self.close_if_empty()
                raise
        return [SlotRow(cache) for cache in self.caches]

    def admit(self, opened: list[SlotRow], pending: int, payload: object) -> BatchRow:
        """Seat the row the ``opened`` views were prefilled through; the next step decodes it."""
        for cache, row in zip(self.caches, opened):
            cache.seat(row)
        row = BatchRow(payload=payload, pending=pending)
        self.rows.append(row)
        return row

    def close_if_empty(self) -> None:
        """With no row seated, give the slot slabs back (an opened, unseated row holds none)."""
        if not self.rows:
            for cache in self.caches:
                cache.release()
            self.caches = []

    def admit_prompts(self, prompts: list[list[int]], payloads: list[object]) -> list[int]:
        """Prefill each prompt in its slot and admit it; the first greedy token per prompt.

        No serving path calls it: ``bench/trace.py`` wraps it by name, and
        the static-batch conformance case drives it against the batch-1
        reference decoder.
        """
        if len(prompts) != len(payloads):
            raise EngineError(f"{len(prompts)} prompts vs {len(payloads)} payloads")
        first_tokens = []
        for prompt, payload in zip(prompts, payloads):
            opened = self.open_row()
            first_token, _ = prefill_single(self.model, prompt, opened)
            self.admit(opened, first_token, payload)
            first_tokens.append(first_token)
        return first_tokens

    # -- decoding -----------------------------------------------------------

    def step(self) -> list[int]:
        """One batched decode step: feed every row's pending token, sample next.

        Appends one cache column per row and returns the greedy next token
        for each row (aligned with ``self.rows``).  The caller decides per
        row whether to continue (set ``row.pending``) or retire.
        """
        if not self.rows:
            raise EngineError("decode step on an empty batch")
        pending = self._pending[: len(self.rows)]
        for b, row in enumerate(self.rows):
            pending[b, 0] = row.pending
        logits = self.model.forward_incremental(pending, self.caches)
        return logits[:, -1].argmax(axis=-1).tolist()

    def speculative_step(self, drafts: list[list[int]]) -> list[list[int]]:
        """One draft-then-verify decode step; returns emitted tokens per row.

        ``drafts[b]`` proposes row *b*'s continuation after its pending
        token; every row must propose the same ``k >= 1`` tokens (callers
        pad).  The step feeds ``[pending, d_1 .. d_k]`` through a single
        batched forward — ``k + 1`` new cache columns per row — then
        accepts the longest prefix where each draft token equals the
        greedy argmax of the position before it.  Emitted tokens are
        ``greedy[:accept]``: the exact tokens plain greedy decoding would
        have produced one step at a time, which is why speculation is
        byte-identical to greedy regardless of what the draft proposed
        (a wrong draft just caps ``accept`` at the first disagreement).
        The caches keep exactly ``accept`` of the fed columns per row —
        the pending token plus the accepted drafts; the final emitted
        token has no K/V yet, it becomes the next step's pending — and
        the rejected columns are rolled back by lowering the row's
        length: no copy, whatever each row accepted.
        """
        if not self.rows:
            raise EngineError("speculative step on an empty batch")
        if len(drafts) != len(self.rows):
            raise EngineError(f"{len(drafts)} drafts for a batch of {len(self.rows)} rows")
        k = len(drafts[0])
        if k < 1 or any(len(draft) != k for draft in drafts):
            raise EngineError("every row must draft the same k >= 1 tokens")
        window = self.model.config.n_positions
        longest = self.caches[0].length
        if longest + k >= window:
            raise EngineError(
                f"draft of {k} tokens past length {longest} exceeds window {window}"
            )
        width = k + 1
        tokens = np.empty((len(self.rows), width), dtype=np.int64)
        for b, row in enumerate(self.rows):
            tokens[b, 0] = row.pending
            tokens[b, 1:] = drafts[b]
        logits = self.model.forward_incremental(tokens, self.caches)
        greedy = logits.argmax(axis=-1)  # (B, k+1) — greedy token at every fed position
        emitted: list[list[int]] = []
        for b, draft in enumerate(drafts):
            accept = 1
            while accept <= k and draft[accept - 1] == greedy[b, accept - 1]:
                accept += 1
            emitted.append([int(token) for token in greedy[b, :accept]])
            if accept < width:
                for cache in self.caches:
                    cache.roll_back(b, width - accept)
        return emitted

    def retire(self, indices: list[int]) -> list[BatchRow]:
        """Drop finished rows: the last row moves into each freed slot."""
        if not indices:
            return []
        for index in indices:
            if not 0 <= index < len(self.rows):
                raise EngineError(f"retire index {index} out of range for batch of {len(self.rows)}")
        dropped = sorted(set(indices), reverse=True)
        retired = [self.rows[index] for index in reversed(dropped)]
        for index in dropped:  # highest first: the last row is never a dropped one
            last = self.rows.pop()
            if index < len(self.rows):
                self.rows[index] = last
            for cache in self.caches:
                cache.pop_row(index)
        self.close_if_empty()
        return retired
