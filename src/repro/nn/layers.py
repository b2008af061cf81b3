"""Core layers with explicit forward/backward passes.

Each layer caches the activations its backward pass needs; calling
``backward`` before ``forward`` is a programming error and raises.  The
explicit style (rather than a tape autograd) keeps the inference path
allocation-free and lets every backward pass be verified against finite
differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.parameter import Parameter, normal_init, ones_init, zeros_init


class Layer:
    """Base class: parameter bookkeeping shared by all layers."""

    def parameters(self) -> list[Parameter]:
        found: list[Parameter] = []
        for value in vars(self).values():
            if isinstance(value, Parameter):
                found.append(value)
            elif isinstance(value, Layer):
                found.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Layer):
                        found.extend(item.parameters())
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def n_parameters(self) -> int:
        return sum(parameter.size for parameter in self.parameters())


class Linear(Layer):
    """Affine projection ``y = x @ W + b`` over the last axis."""

    def __init__(self, name: str, fan_in: int, fan_out: int, rng: np.random.Generator, std: float | None = None, bias: bool = True):
        std = std if std is not None else 0.02
        self.weight = Parameter(f"{name}.weight", normal_init(rng, (fan_in, fan_out), std))
        self.bias = Parameter(f"{name}.bias", zeros_init((fan_out,))) if bias else None
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.shape[-1] != self.weight.data.shape[0]:
            raise ShapeError(
                f"Linear {self.weight.name}: input dim {x.shape[-1]} != {self.weight.data.shape[0]}"
            )
        if training:
            self._input = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError(f"Linear {self.weight.name}: backward before forward")
        x = self._input
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_x.T @ flat_grad
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=0)
        grad_input = grad_output @ self.weight.data.T
        self._input = None
        return grad_input


class Embedding(Layer):
    """Token-id → vector lookup."""

    def __init__(self, name: str, n_embeddings: int, dim: int, rng: np.random.Generator, std: float = 0.02):
        self.weight = Parameter(f"{name}.weight", normal_init(rng, (n_embeddings, dim), std))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray, training: bool = True) -> np.ndarray:
        if ids.max(initial=0) >= self.weight.data.shape[0]:
            raise ShapeError(
                f"Embedding {self.weight.name}: id {int(ids.max())} out of range "
                f"{self.weight.data.shape[0]}"
            )
        if training:
            self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError(f"Embedding {self.weight.name}: backward before forward")
        flat_ids = self._ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        self._ids = None


class LayerNorm(Layer):
    """Layer normalization over the last axis with learned scale and shift."""

    def __init__(self, name: str, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(f"{name}.gamma", ones_init((dim,)))
        self.beta = Parameter(f"{name}.beta", zeros_init((dim,)))
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # ``np.add.reduce`` + in-place divide: the two ufuncs ``ndarray.mean``
        # runs, bit for bit, without its Python wrapper — this sits on the
        # dispatch-bound decode path of every block.
        dim = x.shape[-1]
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        mean /= dim
        centered = x - mean
        variance = np.add.reduce(centered * centered, axis=-1, keepdims=True)
        variance /= dim
        inv_std = 1.0 / np.sqrt(variance + self.eps)
        normalized = centered * inv_std
        if training:
            self._cache = (normalized, inv_std, centered)
        out = normalized * self.gamma.data
        out += self.beta.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"LayerNorm {self.gamma.name}: backward before forward")
        normalized, inv_std, _ = self._cache
        dim = normalized.shape[-1]
        flat_norm = normalized.reshape(-1, dim)
        flat_grad = grad_output.reshape(-1, dim)
        self.gamma.grad += (flat_grad * flat_norm).sum(axis=0)
        self.beta.grad += flat_grad.sum(axis=0)
        grad_normalized = grad_output * self.gamma.data
        # d/dx of (x - mean) * inv_std, standard layernorm backward.
        mean_grad = grad_normalized.mean(axis=-1, keepdims=True)
        mean_grad_norm = (grad_normalized * normalized).mean(axis=-1, keepdims=True)
        grad_input = (grad_normalized - mean_grad - normalized * mean_grad_norm) * inv_std
        self._cache = None
        return grad_input


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation, as used by GPT-family models)."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def gelu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of :func:`gelu` with respect to its input."""
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
    return grad_output * (0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exped = np.exp(shifted)
    return exped / exped.sum(axis=axis, keepdims=True)


def softmax_inplace(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax computed in ``x``'s own storage.

    Identical values to :func:`softmax` but zero temporaries proportional
    to ``x`` — the decode hot path calls this on a reused score scratch
    buffer every step.  Returns ``x``.
    """
    np.subtract(x, x.max(axis=axis, keepdims=True), out=x)
    np.exp(x, out=x)
    np.divide(x, x.sum(axis=axis, keepdims=True), out=x)
    return x


def cross_entropy(logits: np.ndarray, targets: np.ndarray, ignore_index: int = -1) -> tuple[float, np.ndarray]:
    """Mean token cross-entropy and its gradient w.r.t. logits.

    ``logits`` has shape (..., V); ``targets`` the matching index shape with
    ``ignore_index`` marking padding positions excluded from the mean.
    """
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    probabilities = softmax(flat_logits, axis=-1)
    grad = probabilities.copy()
    if n_valid == 0:
        return 0.0, np.zeros_like(logits)
    rows = np.nonzero(valid)[0]
    cols = flat_targets[rows]
    picked = probabilities[rows, cols]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad[rows, cols] -= 1.0
    grad[~valid] = 0.0
    grad /= n_valid
    return loss, grad.reshape(logits.shape)
