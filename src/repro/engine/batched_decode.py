"""Batched KV-cache decoding over a :class:`~repro.nn.transformer.DecoderLM`.

The decode-side substrate of the continuous-batching engine.  Rows of the
active batch decode in lockstep over *shared* per-layer KV caches laid out
left-padded: every row's valid keys are right-aligned, padding columns sit
on the left and are excluded from attention by a key-padding mask, and
rotary positions are supplied per row so a row's tokens are rotated by
their index in that row's real sequence, not by the padded column index.

The layout invariant maintained throughout is::

    cache columns = max(row real lengths)
    row b's valid keys occupy columns [total - real_len_b, total)

New tokens append one column on the right for every row simultaneously,
which is what makes a decode step a single batched ``forward_incremental``
call.  Retiring a row drops its batch row and trims any columns that
became all-padding, so the remaining rows' window budgets are unaffected
by neighbours that finished earlier.

Storage lives in a :class:`~repro.nn.kv_arena.KVArena`: the steady-state
decode step appends K/V columns in place and reuses persistent pending /
positions / padding-mask buffers (left-pad widths only change when batch
membership changes, so the mask is rebuilt on admit/retire, not per step).
Batch reshapes (admission, retirement) copy once into a fresh slab —
never per decoded token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError
from repro.faults.inject import shield
from repro.nn.kv_arena import KVArena, KVCache
from repro.nn.transformer import DecoderLM

PAD_TOKEN_ID = 0  # embedding input for padding slots; masked out of attention


@dataclass
class BatchRow:
    """One active sequence in the decoding batch."""

    payload: object  # caller-owned (the engine stores its GenerationRequest here)
    real_length: int  # K/V entries this row owns in the shared caches
    pending: int  # last sampled token; its K/V joins the cache on the next step
    # Per-request draft state: the token context (prompt + generated so
    # far, pending included) that speculative callers hand to the draft
    # model.  None when the batch runs without speculation.
    context: list[int] | None = None


def prefill_single(
    model: DecoderLM,
    prompt_ids: list[int],
    seeded_caches: list[KVCache] | None = None,
    arena: KVArena | None = None,
) -> tuple[list[KVCache], int, int]:
    """Prefill one prompt at batch size 1, optionally atop prefix-cache K/V.

    Returns ``(caches, first_token, prefilled)`` where ``prefilled`` is the
    number of prompt tokens actually run through the model (the suffix not
    covered by ``seeded_caches``).  Batch-1 prefill is bit-identical to the
    sequential :func:`~repro.nn.sampling.generate_greedy` prefill, which is
    what makes engine outputs token-identical to sequential decoding.
    """
    caches = seeded_caches if seeded_caches is not None else model.new_cache(arena)
    offset = caches[0].length
    suffix = prompt_ids[offset:]
    if not suffix:
        raise EngineError("prefix cache covered the whole prompt; nothing to prefill")
    try:
        logits = model.forward_incremental(np.array([suffix], dtype=np.int64), caches)
    except BaseException:
        # Prefill is the fault-injection point for allocation failures:
        # layers appended before the fault hold live slabs, and the
        # request is about to be shed — return every claim to the arena
        # so shedding never leaks KV memory (seeded prefix-cache aliases
        # included; their entry keeps the underlying slab alive).
        for cache in caches:
            cache.release()
        raise
    return caches, int(logits[0, -1].argmax()), len(suffix)


class DecodingBatch:
    """Left-padded lockstep decoding over shared per-layer KV caches."""

    def __init__(self, model: DecoderLM, arena: KVArena | None = None):
        self.model = model
        self.arena = arena
        self.caches: list[KVCache] = model.new_cache(arena)
        self.rows: list[BatchRow] = []
        # Per-step scratch, valid until batch membership changes.
        self._pending: np.ndarray | None = None
        self._positions: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def total_columns(self) -> int:
        return self.caches[0].length if self.caches else 0

    def _refresh_step_scratch(self) -> None:
        """Rebuild pending/positions/mask buffers after membership changes.

        Row pad widths are invariant across decode steps (every row gains
        one column per step, so ``total - real_length`` is constant), which
        is why the padding mask can persist: each step slices it to the
        current width instead of reallocating.
        """
        batch = len(self.rows)
        if not batch:
            self._pending = self._positions = self._mask = None
            return
        self._pending = np.empty((batch, 1), dtype=np.int64)
        self._positions = np.empty((batch, 1), dtype=np.int64)  # filled from real_length per step
        total = self.total_columns
        pads = [total - row.real_length for row in self.rows]
        if any(pads):
            width = self.model.config.n_positions + 1
            mask = np.zeros((batch, width), dtype=bool)
            for b, pad in enumerate(pads):
                mask[b, :pad] = True
            self._mask = mask
        else:
            self._mask = None

    # -- admission ----------------------------------------------------------

    def admit(self, row_caches: list[KVCache], pending: int, payload: object) -> BatchRow:
        """Merge one prefilled batch-1 cache into the shared batched caches.

        The first admission steals the row's slabs outright (zero copies);
        later admissions copy both operands once into a fresh right-aligned
        slab — the only per-request copy on the decode side.
        """
        if len(row_caches) != len(self.caches):
            raise EngineError(
                f"row has {len(row_caches)} layer caches, model has {len(self.caches)}"
            )
        real_length = row_caches[0].length
        if real_length < 1:
            raise EngineError("cannot admit a row with an empty cache")
        row = BatchRow(payload=payload, real_length=real_length, pending=pending)
        # Shielded: a fault between per-layer merges would leave layers
        # disagreeing on batch shape — allocation faults belong at prefill.
        with shield():
            if not self.rows:
                for shared, own in zip(self.caches, row_caches):
                    shared.take_from(own)
            else:
                width = max(self.total_columns, real_length)
                for shared, own in zip(self.caches, row_caches):
                    shared.merge_row(own, width)
                    own.release()
        self.rows.append(row)
        self._refresh_step_scratch()
        return row

    def admit_prompts(self, prompts: list[list[int]], payloads: list[object]) -> list[int]:
        """Batched left-padded prefill of several prompts at once.

        Runs one ``forward_incremental`` over the left-padded prompt matrix
        (padding slots embed ``PAD_TOKEN_ID`` and are masked out of
        attention) and admits every prompt as a row.  Returns the first
        greedily sampled token per prompt, in order.  No serving path calls
        it: ``bench/trace.py`` wraps it by name, and the left-padded prefill
        conformance case drives it against ``generate_greedy``.
        """
        if len(prompts) != len(payloads):
            raise EngineError(f"{len(prompts)} prompts vs {len(payloads)} payloads")
        if not prompts:
            return []
        if self.rows:
            raise EngineError("admit_prompts requires an empty batch; use admit() mid-flight")
        lengths = [len(prompt) for prompt in prompts]
        if min(lengths) < 1:
            raise EngineError("cannot prefill an empty prompt")
        width = max(lengths)
        batch = len(prompts)
        ids = np.full((batch, width), PAD_TOKEN_ID, dtype=np.int64)
        positions = np.zeros((batch, width), dtype=np.int64)
        mask = np.zeros((batch, width), dtype=bool)
        for b, prompt in enumerate(prompts):
            pad = width - lengths[b]
            ids[b, pad:] = prompt
            positions[b, pad:] = np.arange(lengths[b])
            mask[b, :pad] = True
        with shield():
            for cache in self.caches:
                cache.release()
            self.caches = self.model.new_cache(self.arena)
            logits = self.model.forward_incremental(
                ids, self.caches, positions, mask if width > min(lengths) else None
            )
        first_tokens = logits[:, -1].argmax(axis=-1).tolist()
        for b, payload in enumerate(payloads):
            self.rows.append(BatchRow(payload=payload, real_length=lengths[b], pending=first_tokens[b]))
        self._refresh_step_scratch()
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
        total = self.total_columns + 1
        pending, positions = self._pending, self._positions
        for b, row in enumerate(self.rows):
            pending[b, 0] = row.pending
            positions[b, 0] = row.real_length
            row.real_length += 1  # the column the forward below appends
        mask = self._mask[:, :total] if self._mask is not None else None
        # Unpadded rows all sit at the cache offset: ``positions=None`` says
        # so without a per-row rotary gather.
        if mask is None:
            positions = None
        # Shielded: the forward appends one K/V column per layer; a fault
        # between layers would leave the shared caches at mixed lengths.
        with shield():
            logits = self.model.forward_incremental(pending, self.caches, positions, mask)
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
        the rejected columns are rolled back: a zero-copy ``truncate``
        when every row accepted the same count, a one-copy
        ``realign_rows`` re-pack when accept lengths differ per row.
        """
        if not self.rows:
            raise EngineError("speculative step on an empty batch")
        if len(drafts) != len(self.rows):
            raise EngineError(f"{len(drafts)} drafts for a batch of {len(self.rows)} rows")
        k = len(drafts[0])
        if k < 1 or any(len(draft) != k for draft in drafts):
            raise EngineError("every row must draft the same k >= 1 tokens")
        window = self.model.config.n_positions
        max_len = max(row.real_length for row in self.rows)
        if max_len + k >= window:
            raise EngineError(
                f"draft of {k} tokens past length {max_len} exceeds window {window}"
            )
        batch = len(self.rows)
        width = k + 1
        old_total = self.total_columns
        tokens = np.empty((batch, width), dtype=np.int64)
        for b, row in enumerate(self.rows):
            tokens[b, 0] = row.pending
            tokens[b, 1:] = drafts[b]
            self._positions[b, 0] = row.real_length
        total = old_total + width
        mask = self._mask[:, :total] if self._mask is not None else None
        positions = None  # as in step(): unpadded rows sit at the cache offsets
        if mask is not None:
            positions = self._positions + np.arange(width, dtype=np.int64)[None, :]
        # Shielded like step(): the forward appends k+1 K/V columns per
        # layer, and the rollback below must also land on every layer.
        with shield():
            logits = self.model.forward_incremental(tokens, self.caches, positions, mask)
        greedy = logits.argmax(axis=-1)  # (B, k+1) — greedy token at every fed position
        emitted: list[list[int]] = []
        accepts: list[int] = []
        for b, draft in enumerate(drafts):
            accept = 1
            while accept <= k and draft[accept - 1] == greedy[b, accept - 1]:
                accept += 1
            accepts.append(accept)
            emitted.append([int(token) for token in greedy[b, :accept]])
        if min(accepts) == max(accepts):
            # Uniform acceptance: pad widths stay invariant, so rollback
            # is a zero-copy forget of the rejected right-most columns.
            drop = width - accepts[0]
            if drop:
                with shield():
                    for cache in self.caches:
                        cache.truncate(total - drop)
        else:
            # Mixed acceptance: re-pack every row right-aligned at the new
            # max length (one copy per mixed step, never per token).
            spans = [
                (old_total - row.real_length, row.real_length + accept)
                for row, accept in zip(self.rows, accepts)
            ]
            with shield():
                for cache in self.caches:
                    cache.realign_rows(spans)
        for row, accept in zip(self.rows, accepts):
            row.real_length += accept
        if min(accepts) != max(accepts):
            self._refresh_step_scratch()
        return emitted

    def retire(self, indices: list[int]) -> list[BatchRow]:
        """Drop finished rows and trim columns that became all-padding."""
        if not indices:
            return []
        dropped = set(indices)
        for index in dropped:
            if not 0 <= index < len(self.rows):
                raise EngineError(f"retire index {index} out of range for batch of {len(self.rows)}")
        retired = [self.rows[i] for i in sorted(dropped)]
        keep = [i for i in range(len(self.rows)) if i not in dropped]
        self.rows = [self.rows[i] for i in keep]
        if not self.rows:
            for cache in self.caches:
                cache.release()  # a released handle is as good as a new one
            self._refresh_step_scratch()
            return retired
        trim = self.total_columns - max(row.real_length for row in self.rows)
        with shield():
            for cache in self.caches:
                cache.select_rows(keep, trim)
        self._refresh_step_scratch()
        return retired
