"""Causal multi-head self-attention with rotary position embeddings.

Matches the attention used by the CodeGen family: rotary-embedded queries
and keys, scaled dot product, causal mask, learned output projection.  The
layer supports an inference-time key/value cache so generation costs
O(T) per new token instead of O(T^2).

The decode hot path is allocation-free by design: K/V columns append in
place into arena slabs (:mod:`repro.nn.kv_arena`), causal masks are views
of one read-only triangular table, rotary cos/sin tables are shared
process-wide, the score matmul writes into a per-slab scratch buffer and
masking + softmax run in place on it.  Activations stay float32 end to
end: the one constant that multiplies them (the score scale) is an
``np.float32``, because under NumPy 2 a float64 *NumPy* scalar promotes a
float32 array to float64 (Python floats do not).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.nn.kv_arena import KVArena, KVCache, SlotKVCache, SlotRow, default_arena  # noqa: F401 — re-exported
from repro.nn.layers import Layer, Linear, softmax, softmax_inplace
from repro.nn.rotary import apply_rotary, apply_rotary_backward, shared_rotary_tables

NEG_INF = np.float32(-1e9)

_causal_table = np.zeros((0, 0), dtype=bool)  # np.triu(ones, k=1), grown on demand


def causal_mask(new_length: int, total: int, diagonal: int) -> np.ndarray | None:
    """Read-only boolean mask: True where query ``i`` must not see key ``j``.

    Equal to ``np.triu(np.ones((new_length, total), bool), k=diagonal)`` for
    ``diagonal >= 1``, but never built per call: ``j - i >= diagonal`` is
    row ``i + diagonal - 1`` of one strictly-upper-triangular table, so
    every mask is a view of it (the table at least doubles when it must
    grow, so a process rebuilds it O(log N) times).  Returns ``None`` when
    the mask would be all-False (every single-token decode step:
    ``diagonal == total``), letting callers skip masking entirely.
    """
    global _causal_table
    if diagonal < 1:
        raise ValueError(f"causal_mask diagonal {diagonal} < 1")
    if diagonal >= total:
        return None
    first = diagonal - 1
    table = _causal_table
    extent = max(total, first + new_length)
    if table.shape[0] < extent:
        extent = max(extent, 2 * table.shape[0])
        table = np.triu(np.ones((extent, extent), dtype=bool), k=1)
        table.flags.writeable = False
        _causal_table = table
    return table[first : first + new_length, :total]



def rotary_slices(
    cos: np.ndarray,
    sin: np.ndarray,
    offset: int,
    new_length: int,
    offsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotary ``(cos, sin)`` rows of ``new_length`` new tokens at their cache columns:
    ``offset + i`` for every row, or ``offsets[b] + i`` when rows differ."""
    if offsets is None:
        return cos[offset : offset + new_length][None, None], sin[offset : offset + new_length][None, None]
    positions = offsets[:, None] + np.arange(new_length)
    return cos[positions][:, None], sin[positions][:, None]


def _key_mask(offsets: np.ndarray, new_length: int, total: int) -> np.ndarray:
    """True where new token ``i`` of row ``b`` must not see key ``j``: ``j > offsets[b] + i``."""
    return np.arange(total) > (offsets[:, None] + np.arange(new_length))[:, :, None]


class CausalSelfAttention(Layer):
    """Multi-head causal self-attention block."""

    def __init__(self, name: str, dim: int, n_heads: int, n_positions: int, rng: np.random.Generator, std: float = 0.02):
        if dim % n_heads != 0:
            raise ShapeError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.n_positions = n_positions
        self.query_proj = Linear(f"{name}.q", dim, dim, rng, std=std, bias=False)
        self.key_proj = Linear(f"{name}.k", dim, dim, rng, std=std, bias=False)
        self.value_proj = Linear(f"{name}.v", dim, dim, rng, std=std, bias=False)
        self.out_proj = Linear(f"{name}.o", dim, dim, rng, std=std)
        self._pack_qkv()
        self._scale = np.float32(1.0 / math.sqrt(self.head_dim))
        self._cos, self._sin = shared_rotary_tables(n_positions, self.head_dim)
        self._cache: dict[str, np.ndarray] | None = None

    def _pack_qkv(self) -> None:
        """Make the q/k/v weights column views of one packed ``(dim, 3*dim)`` array.

        Inference projects Q, K and V with one matmul over ``_qkv``; the
        three Linears (drawn in the order the seeded state_dict depends on)
        keep training and checkpoints working on the same memory.  Writers
        may update those ``weight.data`` in place or rebind them:
        :meth:`forward_incremental` re-packs when a view is no longer ours.
        """
        projections = (self.query_proj, self.key_proj, self.value_proj)
        self._qkv = np.concatenate([proj.weight.data for proj in projections], axis=1)
        for index, proj in enumerate(projections):
            proj.weight.data = self._qkv[:, index * self.dim : (index + 1) * self.dim]

    # -- shape helpers -----------------------------------------------------

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _, length, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)

    # -- training path -----------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        batch, length, _ = x.shape
        if length > self.n_positions:
            raise ShapeError(f"sequence length {length} exceeds n_positions {self.n_positions}")
        queries = self._split_heads(self.query_proj.forward(x, training))
        keys = self._split_heads(self.key_proj.forward(x, training))
        values = self._split_heads(self.value_proj.forward(x, training))

        cos = self._cos[:length][None, None]
        sin = self._sin[:length][None, None]
        rotated_queries = apply_rotary(queries, cos, sin)
        rotated_keys = apply_rotary(keys, cos, sin)

        scores = (rotated_queries @ rotated_keys.transpose(0, 1, 3, 2)) * self._scale
        causal = causal_mask(length, length, 1)
        if causal is not None:
            np.copyto(scores, NEG_INF, where=causal)
        weights = softmax(scores, axis=-1)
        context = weights @ values
        merged = self._merge_heads(context)
        out = self.out_proj.forward(merged, training)
        if training:
            self._cache = {
                "rotated_queries": rotated_queries,
                "rotated_keys": rotated_keys,
                "values": values,
                "weights": weights,
                "cos": cos,
                "sin": sin,
            }
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("attention backward before forward")
        cache = self._cache
        grad_merged = self.out_proj.backward(grad_output)
        batch, length, _ = grad_merged.shape
        grad_context = grad_merged.reshape(batch, length, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

        weights = cache["weights"]
        grad_weights = grad_context @ cache["values"].transpose(0, 1, 3, 2)
        grad_values = weights.transpose(0, 1, 3, 2) @ grad_context

        # softmax backward (per row)
        weighted = (grad_weights * weights).sum(axis=-1, keepdims=True)
        grad_scores = weights * (grad_weights - weighted)
        grad_scores *= self._scale

        grad_rotated_queries = grad_scores @ cache["rotated_keys"]
        grad_rotated_keys = grad_scores.transpose(0, 1, 3, 2) @ cache["rotated_queries"]

        grad_queries = apply_rotary_backward(grad_rotated_queries, cache["cos"], cache["sin"])
        grad_keys = apply_rotary_backward(grad_rotated_keys, cache["cos"], cache["sin"])

        grad_input = self.query_proj.backward(self._merge_heads(grad_queries))
        grad_input += self.key_proj.backward(self._merge_heads(grad_keys))
        grad_input += self.value_proj.backward(self._merge_heads(grad_values))
        self._cache = None
        return grad_input

    # -- inference path -----------------------------------------------------

    def forward_incremental(
        self,
        x: np.ndarray,
        kv_cache: KVCache | SlotKVCache | SlotRow,
        rope: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Inference forward for the new suffix ``x``, reusing cached K/V.

        ``x`` holds only positions not yet in the cache; returns the
        attention output for those positions.  A token's rotary position
        is its cache column.

        The cache says where each row sits: ``kv_cache.row_offsets()`` is
        every row's length when rows differ (a decoding batch's
        :class:`~repro.nn.kv_arena.SlotKVCache`) and None when every row
        sits at ``kv_cache.length``.  One mask rule covers both: key ``j``
        is visible to new token ``i`` of row ``b`` iff
        ``j <= offset_b + i``.  Masked keys get weight exactly 0.0 after
        the softmax (the ``NEG_INF`` score underflows), so rows decoded
        together equal rows decoded alone up to float summation order.

        ``rope`` optionally passes pre-gathered ``(cos, sin)`` slices so a
        multi-layer model pays the rotary table gather once per step
        instead of once per layer (:meth:`DecoderLM.forward_incremental`
        does this).

        Single-token steps through an arena-backed cache are
        allocation-free: scores target the slab's scratch buffer, the
        causal mask is vacuous and skipped, masked fill and softmax run in
        place.
        """
        batch, new_length, width = x.shape
        offset = kv_cache.length  # the longest row's length
        offsets = kv_cache.row_offsets()  # read before the append moves them
        total = offset + new_length
        if total > self.n_positions:
            raise ShapeError(
                f"cache {offset} + new {new_length} exceeds n_positions {self.n_positions}"
            )
        if width != self.dim:
            raise ShapeError(f"attention input dim {width} != {self.dim}")
        packed = self._qkv
        if not (
            self.query_proj.weight.data.base is packed
            and self.key_proj.weight.data.base is packed
            and self.value_proj.weight.data.base is packed
        ):
            self._pack_qkv()  # a weight was rebound (e.g. load_state_dict)
        # One matmul for Q, K and V, viewed as (3, B, H, T_new, D).
        qkv = (x @ self._qkv).reshape(batch, new_length, 3, self.n_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)

        if rope is None:
            rope = rotary_slices(self._cos, self._sin, offset, new_length, offsets)
        # Queries and keys rotate in one call: cos/sin broadcast over the
        # leading stacked axis exactly as they do over heads.
        rotated_queries, rotated_keys = apply_rotary(qkv[:2], *rope)

        all_keys, all_values = kv_cache.append(rotated_keys, qkv[2])
        scores = None
        if new_length == 1:
            scratch = getattr(kv_cache, "decode_scores", None)
            if scratch is not None:
                scores = scratch(self.n_heads)
        scores = np.matmul(rotated_queries, all_keys.transpose(0, 1, 3, 2), out=scores)
        scores *= self._scale
        if offsets is not None:
            np.copyto(scores, NEG_INF, where=_key_mask(offsets, new_length, total)[:, None])
        elif new_length > 1:  # a lone new token may see every key: nothing to mask
            np.copyto(scores, NEG_INF, where=causal_mask(new_length, total, offset + 1))
        weights = softmax_inplace(scores)
        context = weights @ all_values
        return self.out_proj.forward(self._merge_heads(context), training=False)
