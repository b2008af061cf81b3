"""Numpy neural-network substrate: layers, transformer, optimizer, greedy decoding."""

from repro.nn.attention import CausalSelfAttention, KVCache, causal_mask
from repro.nn.kv_arena import KVArena, default_arena
from repro.nn.layers import (
    Embedding,
    Layer,
    LayerNorm,
    Linear,
    cross_entropy,
    gelu,
    gelu_backward,
    softmax,
    softmax_inplace,
)
from repro.nn.optim import Adam, CosineSchedule, LinearSchedule, clip_grad_norm
from repro.nn.parameter import Parameter, numpy_rng
from repro.nn.rotary import apply_rotary, apply_rotary_backward, rotary_tables, shared_rotary_tables
from repro.nn.sampling import GenerationResult, plan_prompt
from repro.nn.transformer import Block, DecoderLM, Mlp, TransformerConfig

__all__ = [
    "CausalSelfAttention",
    "KVCache",
    "causal_mask",
    "KVArena",
    "default_arena",
    "Embedding",
    "Layer",
    "LayerNorm",
    "Linear",
    "cross_entropy",
    "gelu",
    "gelu_backward",
    "softmax",
    "softmax_inplace",
    "Adam",
    "CosineSchedule",
    "LinearSchedule",
    "clip_grad_norm",
    "Parameter",
    "numpy_rng",
    "apply_rotary",
    "apply_rotary_backward",
    "rotary_tables",
    "shared_rotary_tables",
    "GenerationResult",
    "plan_prompt",
    "Block",
    "DecoderLM",
    "Mlp",
    "TransformerConfig",
]
