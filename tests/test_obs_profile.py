"""Tests for repro.obs.profile (op-level profiler, FLOPs/roofline model).

The load-bearing properties: the analytic cost model is exact where the
ISSUE pins it (Linear forward is ``2*m*n*k`` FLOPs, bias adds ``m*k``),
attach/detach leaves layer instances exactly as found, self time nests
correctly (a parent's self excludes its profiled children), a disabled
profiler records nothing, and profiling never changes the numbers a
layer returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.model import SIZE_350M, transformer_config
from repro.nn.layers import Embedding, LayerNorm, Linear
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM
from repro.obs import NULL_PROFILER, OpProfiler
from repro.obs.profile import iter_layers
from repro.obs.report import format_op_table


def small_network() -> DecoderLM:
    return DecoderLM(transformer_config(64, SIZE_350M, 32), numpy_rng(0))


class TestLinearFlops:
    def test_forward_matches_2mnk_exactly(self):
        batch, seq, fan_in, fan_out = 3, 5, 8, 16
        layer = Linear("proj", fan_in, fan_out, numpy_rng(0), bias=False)
        profiler = OpProfiler().attach(layer)
        x = numpy_rng(1).normal(size=(batch, seq, fan_in)).astype(np.float32)
        layer.forward(x, training=False)
        (stat,) = profiler.stats()
        m = batch * seq
        assert stat.name == "Linear.forward"
        assert stat.calls == 1
        assert stat.flops == 2 * m * fan_in * fan_out  # exact, no tolerance
        assert stat.bytes_moved == 4 * (m * fan_in + fan_in * fan_out + m * fan_out)
        profiler.detach()

    def test_bias_adds_m_times_k(self):
        batch, seq, fan_in, fan_out = 2, 4, 6, 10
        m = batch * seq
        x = numpy_rng(1).normal(size=(batch, seq, fan_in)).astype(np.float32)
        flops = {}
        for bias in (False, True):
            layer = Linear("proj", fan_in, fan_out, numpy_rng(0), bias=bias)
            profiler = OpProfiler().attach(layer)
            layer.forward(x, training=False)
            flops[bias] = profiler.stats()[0].flops
            profiler.detach()
        assert flops[True] - flops[False] == m * fan_out

    def test_flops_accumulate_over_calls(self):
        layer = Linear("proj", 4, 4, numpy_rng(0), bias=False)
        profiler = OpProfiler().attach(layer)
        x = np.ones((2, 4), dtype=np.float32)
        for _ in range(3):
            layer.forward(x, training=False)
        (stat,) = profiler.stats()
        assert stat.calls == 3
        assert stat.flops == 3 * (2 * 2 * 4 * 4)
        profiler.detach()

    def test_backward_counts_both_matmuls(self):
        layer = Linear("proj", 4, 6, numpy_rng(0), bias=False)
        profiler = OpProfiler().attach(layer)
        x = np.ones((5, 4), dtype=np.float32)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        by_name = {stat.name: stat for stat in profiler.stats()}
        # dW = x^T @ g plus dx = g @ W^T: twice the forward matmul work.
        assert by_name["Linear.backward"].flops == 2 * by_name["Linear.forward"].flops
        profiler.detach()


class TestAttachDetach:
    def test_attach_wraps_detach_restores(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        original = type(layer).forward
        profiler = OpProfiler().attach(layer)
        assert getattr(layer.forward, "_repro_profiled", False)
        profiler.detach()
        assert "forward" not in vars(layer)  # instance attr gone
        assert type(layer).forward is original

    def test_attach_is_idempotent(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler().attach(layer)
        profiler.attach(layer)  # second attach must not double-wrap
        layer.forward(np.ones((1, 4), dtype=np.float32), training=False)
        assert profiler.stats()[0].calls == 1
        profiler.detach()
        layer.forward(np.ones((1, 4), dtype=np.float32), training=False)
        assert profiler.stats()[0].calls == 1  # detached: no new records

    def test_iter_layers_walks_whole_tree(self):
        network = small_network()
        classes = {type(layer).__name__ for layer in iter_layers(network)}
        assert {"DecoderLM", "Block", "CausalSelfAttention", "Mlp",
                "Linear", "LayerNorm", "Embedding"} <= classes

    def test_iter_layers_rejects_non_layer(self):
        with pytest.raises(ObservabilityError):
            iter_layers(object())

    def test_profiled_output_is_identical(self):
        x = numpy_rng(1).normal(size=(2, 3, 8)).astype(np.float32)
        layer = Linear("proj", 8, 8, numpy_rng(0))
        expected = layer.forward(x, training=False)
        profiler = OpProfiler().attach(layer)
        profiled = layer.forward(x, training=False)
        profiler.detach()
        np.testing.assert_array_equal(profiled, expected)


class TestDisabledAndNull:
    def test_disabled_profiler_records_nothing(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler(enabled=False).attach(layer)
        layer.forward(np.ones((1, 4), dtype=np.float32), training=False)
        assert profiler.stats() == []
        assert profiler.total_calls == 0
        profiler.detach()

    def test_null_profiler_is_disabled(self):
        assert not NULL_PROFILER.enabled

    def test_context_manager_toggles_enabled(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler(enabled=False).attach(layer)
        x = np.ones((1, 4), dtype=np.float32)
        with profiler:
            layer.forward(x, training=False)
        layer.forward(x, training=False)  # outside: disabled again
        assert profiler.stats()[0].calls == 1
        profiler.detach()

    def test_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            OpProfiler(capacity=0)


class TestSelfTimeNesting:
    def test_parent_self_excludes_children(self):
        network = small_network()
        profiler = OpProfiler().attach(network)
        ids = np.array([[1, 2, 3, 4]], dtype=np.int64)
        network.forward(ids, training=False)
        by_name = {stat.name: stat for stat in profiler.stats()}
        block = by_name["Block.forward"]
        assert block.self_s < block.total_s  # children subtracted
        total_self = sum(stat.self_s for stat in by_name.values())
        root_total = by_name["DecoderLM.forward"].total_s
        # Self times partition the root's wall time (within timer noise).
        assert total_self <= root_total * 1.05
        profiler.detach()

    def test_stats_sorted_by_self_time(self):
        network = small_network()
        profiler = OpProfiler().attach(network)
        network.forward(np.array([[1, 2, 3]], dtype=np.int64), training=False)
        self_times = [stat.self_s for stat in profiler.stats()]
        assert self_times == sorted(self_times, reverse=True)
        profiler.detach()


class TestAggregatesAndMemory:
    def test_reset_keeps_total_calls_monotonic(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler().attach(layer)
        x = np.ones((1, 4), dtype=np.float32)
        layer.forward(x, training=False)
        layer.forward(x, training=False)
        profiler.reset()
        assert profiler.stats() == []
        assert profiler.total_calls == 2
        layer.forward(x, training=False)
        assert profiler.total_calls == 3
        profiler.detach()

    def test_event_ring_is_bounded(self):
        layer = Linear("proj", 4, 4, numpy_rng(0))
        profiler = OpProfiler(capacity=4).attach(layer)
        x = np.ones((1, 4), dtype=np.float32)
        for _ in range(10):
            layer.forward(x, training=False)
        assert len(profiler.events()) == 4
        assert profiler.total_calls == 10
        profiler.detach()

    def test_alloc_high_water_covers_args_and_result(self):
        layer = Linear("proj", 64, 128, numpy_rng(0), bias=False)
        profiler = OpProfiler().attach(layer)
        x = np.ones((8, 64), dtype=np.float32)
        layer.forward(x, training=False)
        # at peak both the input and the fresh output were live
        assert profiler.alloc_high_water_bytes >= x.nbytes + 8 * 128 * 4
        profiler.detach()

    def test_roofline_properties(self):
        layer = Linear("proj", 4, 4, numpy_rng(0), bias=False)
        profiler = OpProfiler().attach(layer)
        layer.forward(np.ones((2, 4), dtype=np.float32), training=False)
        (stat,) = profiler.stats()
        assert stat.achieved_gflops == stat.flops / stat.self_s / 1e9
        assert stat.arithmetic_intensity == stat.flops / stat.bytes_moved
        assert stat.to_dict()["achieved_gflops"] == stat.achieved_gflops
        profiler.detach()

    def test_tracemalloc_peak_when_tracked(self):
        layer = Linear("proj", 32, 32, numpy_rng(0))
        profiler = OpProfiler(track_memory=True).attach(layer)
        with profiler:
            layer.forward(np.ones((16, 32), dtype=np.float32), training=False)
        assert profiler.tracemalloc_peak_bytes > 0
        profiler.detach()


class TestCostModelCoverage:
    def test_embedding_moves_bytes_no_flops(self):
        layer = Embedding("wte", 16, 8, numpy_rng(0))
        profiler = OpProfiler().attach(layer)
        ids = np.array([[1, 2, 3]], dtype=np.int64)
        out = layer.forward(ids, training=False)
        (stat,) = profiler.stats()
        assert stat.flops == 0.0
        assert stat.bytes_moved == 2 * out.size * 4
        profiler.detach()

    def test_layernorm_cost_scales_with_elements(self):
        layer = LayerNorm("ln", 8)
        profiler = OpProfiler().attach(layer)
        x = np.ones((2, 3, 8), dtype=np.float32)
        layer.forward(x, training=False)
        (stat,) = profiler.stats()
        assert stat.flops == 8 * x.size
        profiler.detach()

    def test_incremental_attention_uses_post_append_kv_length(self):
        network = small_network()
        caches = network.new_cache()
        network.forward_incremental(np.array([[1, 2, 3, 4]], dtype=np.int64), caches)
        profiler = OpProfiler().attach(network)
        network.forward_incremental(np.array([[5]], dtype=np.int64), caches)
        by_name = {stat.name: stat for stat in profiler.stats()}
        stat = by_name["CausalSelfAttention.forward_incremental"]
        layers = network.config.n_layers
        heads = SIZE_350M.n_heads
        head_dim = SIZE_350M.dim // heads
        dim = SIZE_350M.dim
        scores = 1 * heads * 1 * 5  # one new query over 5 total keys
        packed_qkv = 6 * 1 * dim * dim  # the op's own Q/K/V matmul for one new row
        expected_per_layer = 2 * scores * head_dim * 2 + 5 * scores + 12 * (1 * 1 * dim) + packed_qkv
        assert stat.flops == pytest.approx(layers * expected_per_layer)
        profiler.detach()

    def test_incremental_and_training_forward_count_the_same_flops(self):
        # The packed Q/K/V matmul of the incremental path is booked on the
        # attention op; training books the same FLOPs on three Linear ops.
        network = small_network()
        ids = np.array([[1, 2, 3, 4, 5, 6, 7], [3, 4, 5, 6, 7, 8, 9]], dtype=np.int64)
        profiler = OpProfiler().attach(network)
        network.forward(ids, training=False)
        full = profiler.total_flops
        profiler.detach()
        profiler = OpProfiler().attach(network)
        network.forward_incremental(ids, network.new_cache())
        assert profiler.total_flops == full
        by_name = {stat.name: stat for stat in profiler.stats()}
        # Only out_proj, the two MLP layers and lm_head remain Linear ops.
        assert by_name["Linear.forward"].calls == 3 * network.config.n_layers + 1
        profiler.detach()


class TestSmokeEndToEnd:
    """Fast tier-1 smoke half of the S5 overhead benchmark."""

    def test_forward_backward_profile_on_tiny_model(self):
        network = small_network()
        profiler = OpProfiler().attach(network)
        ids = np.array([[1, 2, 3, 4, 5]], dtype=np.int64)
        targets = np.roll(ids, -1, axis=1).copy()
        targets[:, -1] = -1
        network.zero_grad()
        network.loss_and_backward(ids, targets)
        names = {stat.name for stat in profiler.stats()}
        assert "Linear.forward" in names
        assert "Linear.backward" in names
        assert "CausalSelfAttention.forward" in names
        assert profiler.total_flops > 0
        assert profiler.alloc_high_water_bytes > 0
        # Every row, not the five slowest: which ops those are is wall time.
        table = format_op_table(profiler.stats(), top=len(profiler.stats()))
        assert "Linear.forward" in table
        assert "GFLOP/s" in table
        profiler.detach()
