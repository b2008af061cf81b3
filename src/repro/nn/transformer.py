"""Decoder-only transformer language model (the CodeGen architecture).

Matches CodeGen's block structure: a single layer norm feeding *parallel*
attention and MLP branches whose outputs add into the residual stream
(``x = x + attn(ln(x)) + mlp(ln(x))``), rotary position embeddings inside
attention, a final layer norm, and an untied LM head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.nn.attention import CausalSelfAttention, KVCache, rotary_slices
from repro.nn.kv_arena import DenseKVCache, KVArena
from repro.nn.layers import Embedding, Layer, LayerNorm, Linear, cross_entropy, gelu, gelu_backward
from repro.nn.rotary import shared_rotary_tables


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyperparameters.

    ``n_positions`` is the context window — the quantity the paper ablates
    at 512/1024/2048 in Table 4.
    """

    vocab_size: int
    n_positions: int = 256
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    mlp_ratio: int = 4
    init_std: float = 0.02

    def __post_init__(self) -> None:
        if self.dim % self.n_heads != 0:
            raise ShapeError(f"dim {self.dim} must be divisible by n_heads {self.n_heads}")
        if self.dim % 2 != 0:
            raise ShapeError("dim must be even (rotary embeddings pair dimensions)")

    @property
    def mlp_dim(self) -> int:
        return self.dim * self.mlp_ratio


class Mlp(Layer):
    """Two-layer feed-forward with GELU."""

    def __init__(self, name: str, config: TransformerConfig, rng: np.random.Generator):
        self.up = Linear(f"{name}.up", config.dim, config.mlp_dim, rng, std=config.init_std)
        self.down = Linear(f"{name}.down", config.mlp_dim, config.dim, rng, std=config.init_std)
        self._pre_activation: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        hidden = self.up.forward(x, training)
        if training:
            self._pre_activation = hidden
        return self.down.forward(gelu(hidden), training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._pre_activation is None:
            raise RuntimeError("Mlp backward before forward")
        grad_hidden = self.down.backward(grad_output)
        grad_hidden = gelu_backward(self._pre_activation, grad_hidden)
        self._pre_activation = None
        return self.up.backward(grad_hidden)


class Block(Layer):
    """One CodeGen-style transformer block with parallel residual branches."""

    def __init__(self, name: str, config: TransformerConfig, rng: np.random.Generator):
        self.norm = LayerNorm(f"{name}.ln", config.dim)
        self.attention = CausalSelfAttention(
            f"{name}.attn", config.dim, config.n_heads, config.n_positions, rng, std=config.init_std
        )
        self.mlp = Mlp(f"{name}.mlp", config, rng)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        normalized = self.norm.forward(x, training)
        return x + self.attention.forward(normalized, training) + self.mlp.forward(normalized, training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_normalized = self.attention.backward(grad_output) + self.mlp.backward(grad_output)
        return grad_output + self.norm.backward(grad_normalized)

    def forward_incremental(
        self,
        x: np.ndarray,
        kv_cache: KVCache,
        rope: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        normalized = self.norm.forward(x, training=False)
        return (
            x
            + self.attention.forward_incremental(normalized, kv_cache, rope=rope)
            + self.mlp.forward(normalized, training=False)
        )


class DecoderLM(Layer):
    """The full language model: embeddings, blocks, final norm, LM head."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        self.config = config
        self.token_embedding = Embedding("wte", config.vocab_size, config.dim, rng, std=config.init_std)
        self.blocks = [Block(f"h{i}", config, rng) for i in range(config.n_layers)]
        self.final_norm = LayerNorm("ln_f", config.dim)
        self.lm_head = Linear("lm_head", config.dim, config.vocab_size, rng, std=config.init_std)
        # One rotary table for the whole model (and, being memoized, the
        # whole process); each layer's attention holds the same arrays.
        self._rotary = shared_rotary_tables(config.n_positions, config.dim // config.n_heads)

    # -- training -----------------------------------------------------------

    def forward(self, ids: np.ndarray, training: bool = True) -> np.ndarray:
        """Logits of shape (B, T, V) for input ids of shape (B, T)."""
        if ids.ndim != 2:
            raise ShapeError(f"ids must be 2-D (batch, time), got shape {ids.shape}")
        hidden = self.token_embedding.forward(ids, training)
        for block in self.blocks:
            hidden = block.forward(hidden, training)
        hidden = self.final_norm.forward(hidden, training)
        return self.lm_head.forward(hidden, training)

    def loss_and_backward(self, ids: np.ndarray, targets: np.ndarray, ignore_index: int = -1) -> float:
        """One full training step's loss + gradient accumulation.

        ``targets`` is ``ids`` shifted left by one (next-token prediction),
        with ``ignore_index`` at positions excluded from the loss.
        """
        logits = self.forward(ids, training=True)
        loss, grad_logits = cross_entropy(logits, targets, ignore_index)
        grad_hidden = self.lm_head.backward(grad_logits)
        grad_hidden = self.final_norm.backward(grad_hidden)
        for block in reversed(self.blocks):
            grad_hidden = block.backward(grad_hidden)
        self.token_embedding.backward(grad_hidden)
        return loss

    # -- inference -----------------------------------------------------------

    def new_cache(self, arena: KVArena | None = None) -> list[KVCache]:
        """Fresh per-layer arena-backed caches (default: the process arena)."""
        return [KVCache(arena) for _ in self.blocks]

    def new_dense_cache(self) -> list[DenseKVCache]:
        """The legacy concatenate-on-append caches, for comparison runs."""
        return [DenseKVCache() for _ in self.blocks]

    def forward_incremental(
        self,
        ids: np.ndarray,
        caches: list[KVCache],
    ) -> np.ndarray:
        """Logits for the new suffix ``ids`` (B, T_new) given warm caches.

        Rows may sit at different cache lengths (a decoding batch's slot
        caches); see
        :meth:`repro.nn.attention.CausalSelfAttention.forward_incremental`.
        The rotary gather runs once here, shared by every layer.
        """
        cos, sin = self._rotary
        offset, offsets = (caches[0].length, caches[0].row_offsets()) if caches else (0, None)
        rope = rotary_slices(cos, sin, offset, ids.shape[1], offsets)
        hidden = self.token_embedding.forward(ids, training=False)
        for block, cache in zip(self.blocks, caches):
            hidden = block.forward_incremental(hidden, cache, rope=rope)
        hidden = self.final_norm.forward(hidden, training=False)
        return self.lm_head.forward(hidden, training=False)

    # -- state ---------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {parameter.name: parameter.data for parameter in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = {parameter.name: parameter for parameter in self.parameters()}
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ShapeError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, parameter in own.items():
            if parameter.data.shape != state[name].shape:
                raise ShapeError(
                    f"parameter {name}: shape {parameter.data.shape} != checkpoint {state[name].shape}"
                )
            parameter.data = state[name].astype(np.float32).copy()
