"""Op-level profiling with analytic FLOPs and roofline accounting.

Request spans (:mod:`repro.obs.trace`) say where a *request* spends time
— queue, prefill, decode — but not which ops inside the numpy transformer
burn it.  :class:`OpProfiler` closes that gap: :meth:`OpProfiler.attach`
walks a :class:`~repro.nn.layers.Layer` tree and wraps every ``forward``
/ ``backward`` / ``forward_incremental`` method on the *instances*, so
each call records

* wall time, split into **total** and **self** time (self = total minus
  time spent inside nested profiled ops, via a thread-local frame stack);
* an **analytic FLOP count** from the layer type and the shapes that
  actually flowed through (``2*m*n*k`` for a :class:`Linear` matmul, the
  QK^T / PV matmuls for attention, elementwise costs for norms and
  activations — see ``_COST_MODEL`` and the DESIGN.md op taxonomy);
* **bytes moved** under the same analytic model, giving the two roofline
  coordinates: achieved GFLOP/s (``flops / self_s``) and arithmetic
  intensity (``flops / bytes``);
* a **tensor-allocation high-water mark**: the peak, over the profiled
  call stack, of concurrently live ndarray arguments and results — an
  analytic stand-in for activation memory (opt-in ``track_memory=True``
  additionally samples :mod:`tracemalloc` for the true process peak).

Mirroring ``NULL_TRACER``, the shared :data:`NULL_PROFILER` is disabled
and never attached; a wrapped method on a *disabled* profiler pays one
attribute check (``profiler.enabled``) before delegating to the original,
and an unattached layer pays nothing at all.  Profiling, like tracing,
only reads clocks and shapes — it never touches the RNG or any model
state, so profiled generation is token-identical to unprofiled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ObservabilityError

_F32 = 4  # bytes per float32 element; the model runs in float32 throughout


def iter_layers(root) -> list:
    """Every :class:`~repro.nn.layers.Layer` reachable from ``root``.

    Walks instance attributes the same way ``Layer.parameters`` does
    (direct attributes, plus lists/tuples of layers), depth-first,
    de-duplicated by identity, root included first.
    """
    from repro.nn.layers import Layer

    found: list = []
    seen: set[int] = set()

    def walk(node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        found.append(node)
        for value in vars(node).values():
            if isinstance(value, Layer):
                walk(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Layer):
                        walk(item)

    if not isinstance(root, Layer):
        raise ObservabilityError(f"can only profile Layer trees, got {type(root).__name__}")
    walk(root)
    return found


# -- analytic cost model -------------------------------------------------------
#
# Each entry maps (layer class name, method name) -> a *factory* that is
# called once per layer at attach time and returns the per-call cost
# function ``(args, kwargs, result) -> (flops, bytes_moved)``.  Static
# facts — weight shapes, bias presence, head counts — are bound into the
# closure at attach time so the per-call path only reads the shapes that
# vary.  Cost functions run *after* the wrapped call, so post-call state
# (e.g. the appended KV-cache length) is available.  Only the op's own
# work is counted: the Linear layers attention calls are profiled as their
# own ops, so the attention entry covers the score/context matmuls,
# softmax, rotary application and — on the incremental path, where Q/K/V
# are one packed matmul rather than three Linear calls — that projection.
# No FLOP is attributed twice, and ``forward`` and ``forward_incremental``
# of the same ids total the same FLOPs.


def _linear_cost(layer):
    n, k = layer.weight.data.shape
    has_bias = layer.bias is not None

    def cost(args, kwargs, result):
        x = args[0]
        m = x.size // x.shape[-1]
        flops = 2.0 * m * n * k  # one multiply + one add per MAC
        moved = _F32 * (m * n + n * k + m * k)
        if has_bias:
            flops += m * k
            moved += _F32 * k
        return flops, moved

    return cost


def _linear_backward_cost(layer):
    n, k = layer.weight.data.shape
    has_bias = layer.bias is not None

    def cost(args, kwargs, result):
        grad = args[0]
        m = grad.size // grad.shape[-1]
        flops = 4.0 * m * n * k  # dW = x^T @ g and dx = g @ W^T
        moved = _F32 * 2 * (m * n + m * k + n * k)
        if has_bias:
            flops += m * k  # column sum for the bias gradient
            moved += _F32 * k
        return flops, moved

    return cost


def _embedding_cost(layer):
    def cost(args, kwargs, result):
        # A gather: no arithmetic, rows read from the table and written out.
        return 0.0, _F32 * 2 * result.size

    return cost


def _embedding_backward_cost(layer):
    def cost(args, kwargs, result):
        grad = args[0]
        # Scatter-add: one add per gradient element, read + accumulate + write.
        return float(grad.size), _F32 * 3 * grad.size

    return cost


def _layernorm_cost(layer):
    def cost(args, kwargs, result):
        n = args[0].size
        # mean, center, square, variance-mean, rsqrt, normalize, scale, shift.
        return 8.0 * n, _F32 * 2 * n

    return cost


def _layernorm_backward_cost(layer):
    def cost(args, kwargs, result):
        n = args[0].size
        return 12.0 * n, _F32 * 4 * n

    return cost


def _attention_shapes(heads: int, head_dim: int, dim: int, x: np.ndarray, total: int):
    """Shared attention cost for ``new_length`` queries over ``total`` keys."""
    batch, new_length, _ = x.shape
    scores = float(batch * heads * new_length * total)  # score-matrix elements
    q_elements = float(batch * new_length * dim)
    kv_elements = float(batch * total * dim)
    flops = (
        2.0 * scores * head_dim  # QK^T
        + 2.0 * scores * head_dim  # weights @ V
        + 5.0 * scores  # scale, mask, max-shift, exp, normalize
        + 12.0 * q_elements  # rotary on queries and keys (6 flops/element each)
    )
    moved = _F32 * (4.0 * scores + 2.0 * q_elements + 2.0 * kv_elements)
    return flops, moved


def _attention_cost(layer):
    heads, head_dim, dim = layer.n_heads, layer.head_dim, layer.dim

    def cost(args, kwargs, result):
        x = args[0]
        return _attention_shapes(heads, head_dim, dim, x, x.shape[1])

    return cost


def _attention_incremental_cost(layer):
    heads, head_dim, dim = layer.n_heads, layer.head_dim, layer.dim

    def cost(args, kwargs, result):
        # The cost function runs post-call, so kv_cache.length is the
        # post-append total the new queries actually attended over.
        cache = args[1]
        x = args[0]
        flops, moved = _attention_shapes(heads, head_dim, dim, x, cache.length)
        # The op's own packed (dim, 3*dim) Q/K/V matmul: x read once,
        # three weight blocks read, three outputs written.
        m = x.size // dim
        flops += 6.0 * m * dim * dim
        moved += _F32 * (m * dim + 3 * dim * dim + 3 * m * dim)
        # Cache-append traffic is where the paged arena and the legacy
        # concatenate path diverge: in-place arena appends report O(new)
        # bytes per step, dense concatenation O(total) — the profiler
        # makes that difference visible per decode step.
        moved += float(getattr(cache, "last_append_moved_bytes", 0))
        return flops, moved

    return cost


def _attention_backward_cost(layer):
    heads, head_dim, dim = layer.n_heads, layer.head_dim, layer.dim

    def cost(args, kwargs, result):
        grad = args[0]
        batch, length, _ = grad.shape
        scores = float(batch * heads * length * length)
        q_elements = float(batch * length * dim)
        flops = 8.0 * scores * head_dim + 11.0 * scores + 12.0 * q_elements
        moved = _F32 * (8.0 * scores + 6.0 * q_elements)
        return flops, moved

    return cost


def _mlp_cost(layer):
    mlp_dim = layer.up.weight.data.shape[1]

    def cost(args, kwargs, result):
        x = args[0]
        hidden = (x.size // x.shape[-1]) * mlp_dim
        # Self cost is the GELU between the two profiled Linear ops.
        return 8.0 * hidden, _F32 * 2 * hidden

    return cost


def _mlp_backward_cost(layer):
    mlp_dim = layer.up.weight.data.shape[1]

    def cost(args, kwargs, result):
        grad = args[0]
        hidden = (grad.size // grad.shape[-1]) * mlp_dim
        return 14.0 * hidden, _F32 * 3 * hidden

    return cost


def _block_cost(layer):
    def cost(args, kwargs, result):
        # Two residual adds into the stream; branch costs are nested ops.
        n = args[0].size
        return 2.0 * n, _F32 * 3 * n

    return cost


_COST_MODEL: dict[tuple[str, str], object] = {
    ("Linear", "forward"): _linear_cost,
    ("Linear", "backward"): _linear_backward_cost,
    ("Embedding", "forward"): _embedding_cost,
    ("Embedding", "backward"): _embedding_backward_cost,
    ("LayerNorm", "forward"): _layernorm_cost,
    ("LayerNorm", "backward"): _layernorm_backward_cost,
    ("CausalSelfAttention", "forward"): _attention_cost,
    ("CausalSelfAttention", "forward_incremental"): _attention_incremental_cost,
    ("CausalSelfAttention", "backward"): _attention_backward_cost,
    ("Mlp", "forward"): _mlp_cost,
    ("Mlp", "backward"): _mlp_backward_cost,
    ("Block", "forward"): _block_cost,
    ("Block", "forward_incremental"): _block_cost,
    ("Block", "backward"): _block_cost,
}

_PROFILED_METHODS = ("forward", "backward", "forward_incremental")


@dataclass(frozen=True)
class OpStat:
    """Aggregated record for one op (layer class + method)."""

    name: str
    calls: int
    total_s: float
    self_s: float
    flops: float
    bytes_moved: float

    @property
    def achieved_gflops(self) -> float:
        """GFLOP/s over *self* time — the op's own arithmetic rate."""
        return self.flops / self.self_s / 1e9 if self.self_s > 0 else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved: the roofline x-coordinate."""
        return self.flops / self.bytes_moved if self.bytes_moved > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "achieved_gflops": self.achieved_gflops,
            "arithmetic_intensity": self.arithmetic_intensity,
        }


@dataclass(frozen=True)
class OpEvent:
    """One profiled call, kept in a bounded ring for timeline export."""

    name: str
    start_s: float
    end_s: float
    flops: float
    bytes_moved: float

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class _Frame:
    __slots__ = ("child_s", "arg_bytes")

    def __init__(self, arg_bytes: int):
        self.child_s = 0.0
        self.arg_bytes = arg_bytes


class _Agg:
    __slots__ = ("calls", "total_s", "self_s", "flops", "bytes_moved")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.flops = 0.0
        self.bytes_moved = 0.0


class OpProfiler:
    """Wraps a layer tree's methods and aggregates per-op statistics.

    Attributes:
        enabled: when False, wrapped methods delegate straight to the
            original after a single attribute check.
        capacity: per-call event ring size (aggregates are unbounded —
            one slot per distinct op name).
        track_memory: also run :mod:`tracemalloc` between
            :meth:`start_memory_tracking` / :meth:`stop_memory_tracking`
            (or while used as a context manager) for a true process peak.
    """

    def __init__(self, enabled: bool = True, capacity: int = 8192, track_memory: bool = False):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.track_memory = track_memory
        self._aggregates: dict[str, _Agg] = {}
        # ring of (name, start_s, end_s, flops, bytes_moved) tuples —
        # materialised into OpEvents lazily by events(), off the hot path
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrapped: list[tuple[object, str]] = []
        self.total_calls = 0  # lifetime counter; survives reset()
        self._alloc_high_water = 0
        self._tracemalloc_peak = 0

    # -- attachment ----------------------------------------------------------

    def attach(self, root) -> "OpProfiler":
        """Wrap every profiled method under ``root`` to report here.

        Idempotent per layer: instances already wrapped (by this or any
        other profiler) are left alone.  Returns ``self`` for chaining.
        """
        for layer in iter_layers(root):
            for method_name in _PROFILED_METHODS:
                bound = getattr(layer, method_name, None)
                if bound is None or not callable(bound):
                    continue
                if getattr(bound, "_repro_profiled", False):
                    continue
                wrapper = self._make_wrapper(layer, method_name, bound)
                setattr(layer, method_name, wrapper)
                self._wrapped.append((layer, method_name))
        return self

    def detach(self) -> None:
        """Remove every wrapper this profiler installed."""
        for layer, method_name in self._wrapped:
            # The wrapper lives as an instance attribute shadowing the
            # class method; deleting it restores the original lookup.
            try:
                delattr(layer, method_name)
            except AttributeError:
                pass
        self._wrapped.clear()

    def _make_wrapper(self, layer, method_name: str, bound):
        # Everything the hot path touches is bound into the closure once,
        # at attach time: the per-call budget is two clock reads, the cost
        # formula and one locked aggregate update — no method dispatch, no
        # dataclass construction (the event ring holds plain tuples).
        profiler = self
        op_name = f"{type(layer).__name__}.{method_name}"
        factory = _COST_MODEL.get((type(layer).__name__, method_name))
        cost_fn = factory(layer) if factory is not None else None
        local = self._local
        lock = self._lock
        events = self._events
        perf_counter = time.perf_counter
        ndarray = np.ndarray
        with lock:
            # One _Agg per op name, shared by every layer instance of the
            # class and pre-bound here so the hot path never touches the
            # dict; reset() zeroes these in place to keep closures valid.
            aggregate = self._aggregates.get(op_name)
            if aggregate is None:
                aggregate = self._aggregates[op_name] = _Agg()

        def profiled(*args, **kwargs):
            if not profiler.enabled:  # the one attribute check when off
                return bound(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.live_bytes = 0
            arg_bytes = 0
            for value in args:
                if type(value) is ndarray:
                    arg_bytes += value.nbytes
            frame = _Frame(arg_bytes)
            stack.append(frame)
            local.live_bytes += arg_bytes
            start_s = perf_counter()
            try:
                result = bound(*args, **kwargs)
            finally:
                stack.pop()
            end_s = perf_counter()
            elapsed = end_s - start_s
            if cost_fn is not None:
                flops, bytes_moved = cost_fn(args, kwargs, result)
            else:
                flops, bytes_moved = 0.0, 0.0
            live = local.live_bytes + (result.nbytes if type(result) is ndarray else 0)
            local.live_bytes -= arg_bytes
            if stack:
                stack[-1].child_s += elapsed
            self_s = elapsed - frame.child_s
            if self_s < 0.0:
                self_s = 0.0
            with lock:
                aggregate.calls += 1
                aggregate.total_s += elapsed
                aggregate.self_s += self_s
                aggregate.flops += flops
                aggregate.bytes_moved += bytes_moved
                profiler.total_calls += 1
                if live > profiler._alloc_high_water:
                    profiler._alloc_high_water = live
                events.append((op_name, start_s, end_s, flops, bytes_moved))
            return result

        profiled._repro_profiled = True
        profiled.__name__ = bound.__name__
        profiled.__qualname__ = getattr(bound, "__qualname__", bound.__name__)
        return profiled

    # -- enable/disable ------------------------------------------------------

    def __enter__(self) -> "OpProfiler":
        self.enabled = True
        if self.track_memory:
            self.start_memory_tracking()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.enabled = False
        if self.track_memory:
            self.stop_memory_tracking()

    def start_memory_tracking(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        tracemalloc.reset_peak()

    def stop_memory_tracking(self) -> None:
        import tracemalloc

        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self._tracemalloc_peak = max(self._tracemalloc_peak, peak)
            tracemalloc.stop()

    # -- reading -------------------------------------------------------------

    def stats(self) -> list[OpStat]:
        """Per-op aggregates, sorted by self time, hottest first."""
        with self._lock:
            rows = [
                OpStat(
                    name=name,
                    calls=aggregate.calls,
                    total_s=aggregate.total_s,
                    self_s=aggregate.self_s,
                    flops=aggregate.flops,
                    bytes_moved=aggregate.bytes_moved,
                )
                for name, aggregate in self._aggregates.items()
                if aggregate.calls  # pre-bound but never called, or reset
            ]
        rows.sort(key=lambda stat: stat.self_s, reverse=True)
        return rows

    def events(self) -> list[OpEvent]:
        """Snapshot of the bounded per-call event ring, oldest first."""
        with self._lock:
            return [OpEvent(*fields) for fields in self._events]

    @property
    def alloc_high_water_bytes(self) -> int:
        """Peak concurrently-live profiled tensor bytes (analytic)."""
        with self._lock:
            return self._alloc_high_water

    @property
    def tracemalloc_peak_bytes(self) -> int:
        """True process allocation peak; 0 unless memory tracking ran."""
        return self._tracemalloc_peak

    @property
    def total_flops(self) -> float:
        with self._lock:
            return sum(aggregate.flops for aggregate in self._aggregates.values())

    def snapshot(self) -> dict:
        """JSON-ready summary: ops, totals, high-water marks."""
        stats = self.stats()
        return {
            "ops": [stat.to_dict() for stat in stats],
            "total_calls": self.total_calls,
            "total_flops": sum(stat.flops for stat in stats),
            "total_self_s": sum(stat.self_s for stat in stats),
            "alloc_high_water_bytes": self.alloc_high_water_bytes,
            "tracemalloc_peak_bytes": self._tracemalloc_peak,
        }

    def reset(self) -> None:
        """Drop aggregates, events and high-water marks; keep wrappers.

        ``total_calls`` stays monotonic, matching the counter-reset
        semantics used across the rest of :mod:`repro.obs`.
        """
        with self._lock:
            # Zero in place: wrapper closures hold direct _Agg references.
            for aggregate in self._aggregates.values():
                aggregate.calls = 0
                aggregate.total_s = 0.0
                aggregate.self_s = 0.0
                aggregate.flops = 0.0
                aggregate.bytes_moved = 0.0
            self._events.clear()
            self._alloc_high_water = 0
            self._tracemalloc_peak = 0


#: Shared disabled profiler for code paths with no profiler attached.
NULL_PROFILER = OpProfiler(enabled=False, capacity=1)
