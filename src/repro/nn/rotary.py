"""Rotary position embeddings (RoPE), as used by the CodeGen architecture.

Positions enter the model by rotating query/key vectors in 2-D planes, one
plane per pair of head dimensions, with plane ``i`` rotating at frequency
``base ** (-2i/D)``.  Relative offsets then fall out of the dot product —
the property that lets a model trained at one context length degrade
gracefully at another.
"""

from __future__ import annotations

import numpy as np


def rotary_tables(n_positions: int, head_dim: int, base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """Precompute cos/sin tables of shape (n_positions, head_dim // 2)."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for rotary embeddings, got {head_dim}")
    inverse_frequencies = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.outer(np.arange(n_positions, dtype=np.float64), inverse_frequencies)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


_SHARED_TABLES: dict[tuple[int, int, float], tuple[np.ndarray, np.ndarray]] = {}
_SHARED_TABLES_LIMIT = 32


def shared_rotary_tables(
    n_positions: int, head_dim: int, base: float = 10000.0
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized, read-only cos/sin tables shared by every attention layer.

    The tables depend only on ``(n_positions, head_dim, base)``, so one
    copy serves all layers of all models in the process instead of each
    :class:`~repro.nn.attention.CausalSelfAttention` materialising its own.
    The arrays are marked non-writeable; callers needing a private mutable
    copy should use :func:`rotary_tables`.
    """
    key = (n_positions, head_dim, base)
    tables = _SHARED_TABLES.get(key)
    if tables is None:
        cos, sin = rotary_tables(n_positions, head_dim, base)
        cos.flags.writeable = False
        sin.flags.writeable = False
        if len(_SHARED_TABLES) >= _SHARED_TABLES_LIMIT:
            _SHARED_TABLES.clear()
        tables = _SHARED_TABLES[key] = (cos, sin)
    return tables


def apply_rotary(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate ``x`` of shape (..., T, D) using tables sliced to T rows.

    Any leading axes the tables broadcast over will do: (B, H) for one
    tensor, (2, B, H) for stacked queries and keys rotated in one call.

    Even/odd dimension pairs form the rotation planes::

        out[2i]   = x[2i] * cos_i - x[2i+1] * sin_i
        out[2i+1] = x[2i] * sin_i + x[2i+1] * cos_i
    """
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def apply_rotary_backward(grad_output: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Gradient of :func:`apply_rotary`: rotation by the opposite angle."""
    grad_even = grad_output[..., 0::2]
    grad_odd = grad_output[..., 1::2]
    grad_input = np.empty_like(grad_output)
    grad_input[..., 0::2] = grad_even * cos + grad_odd * sin
    grad_input[..., 1::2] = -grad_even * sin + grad_odd * cos
    return grad_input
