"""Paged KV-arena: equivalence with the dense path, the prefix store's copies, growth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import InferenceEngine, PrefixCache, prefill_single
from repro.nn.attention import causal_mask
from repro.nn.kv_arena import DEFAULT_BLOCK_SIZE, DenseKVCache, KVArena, KVCache
from repro.nn.parameter import numpy_rng
from repro.nn.rotary import shared_rotary_tables
from repro.nn.sampling import plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig


@pytest.fixture(scope="module")
def network() -> DecoderLM:
    config = TransformerConfig(vocab_size=32, n_positions=96, dim=32, n_layers=2, n_heads=4)
    return DecoderLM(config, numpy_rng(7))


def _dense_greedy(network: DecoderLM, prompt_ids, max_new_tokens, stop_ids=frozenset()):
    """Greedy decode through the legacy concatenate caches (reference path)."""
    prompt, _ = plan_prompt(network.config.n_positions, prompt_ids, max_new_tokens)
    caches = network.new_dense_cache()
    logits = network.forward_incremental(np.array([prompt], dtype=np.int64), caches)
    next_id = int(logits[0, -1].argmax())
    window = network.config.n_positions
    out: list[int] = []
    while True:
        if next_id in stop_ids:
            break
        out.append(next_id)
        if len(out) >= max_new_tokens or len(prompt) + len(out) >= window:
            break
        logits = network.forward_incremental(np.array([[next_id]], dtype=np.int64), caches)
        next_id = int(logits[0, -1].argmax())
    return out


class TestDenseEquivalence:
    def test_single_row_decode_matches_dense(self, network):
        prompt = [3, 1, 4, 1, 5, 9, 2, 6]
        arena_caches = network.new_cache(KVArena(block_size=4))
        dense_caches = network.new_dense_cache()
        ids = np.array([prompt], dtype=np.int64)
        logits_arena = network.forward_incremental(ids, arena_caches)
        logits_dense = network.forward_incremental(ids, dense_caches)
        np.testing.assert_allclose(logits_arena, logits_dense, rtol=1e-5, atol=1e-6)
        token = int(logits_dense[0, -1].argmax())
        for _ in range(30):
            step = np.array([[token]], dtype=np.int64)
            logits_arena = network.forward_incremental(step, arena_caches)
            logits_dense = network.forward_incremental(step, dense_caches)
            np.testing.assert_allclose(logits_arena, logits_dense, rtol=1e-5, atol=1e-6)
            assert int(logits_arena[0, -1].argmax()) == int(logits_dense[0, -1].argmax())
            token = int(logits_dense[0, -1].argmax())

    def test_left_padded_batched_decode_matches_dense(self, network):
        prompts = [[1, 2, 3], [4, 5, 6, 7, 8, 9, 10], [11], [3, 1, 4, 1, 5]]
        engine = InferenceEngine(network, prefix_cache_capacity=0, max_batch_size=4)
        results = engine.generate_batch(prompts, max_new_tokens=12)
        for prompt, result in zip(prompts, results):
            assert result.token_ids == _dense_greedy(network, prompt, 12)

    def test_prefix_seeded_decode_matches_dense(self, network):
        base = [7, 8, 9, 10, 11, 12, 13, 14]
        extended = base + [15, 16]
        engine = InferenceEngine(network, prefix_cache_capacity=8, max_batch_size=2)
        engine.generate_batch([base], max_new_tokens=8)
        seeded = engine.generate_batch([extended], max_new_tokens=8)[0]
        assert engine.prefix_cache.hits >= 1  # the second call decoded off shared slabs
        assert seeded.token_ids == _dense_greedy(network, extended, 8)


class TestZeroCopySharing:
    def test_lookup_copies_nothing_and_insert_copies_only_new_columns(self, network):
        arena = KVArena(block_size=8)
        head = [1, 2, 3, 4, 5]
        caches = network.new_cache(arena)
        prefill_single(network, head + [6, 7], caches)
        cache = PrefixCache(4)
        assert cache.insert(head, caches) is not None
        copied = arena.bytes_copied
        allocated, reused = arena.slabs_allocated, arena.slabs_reused
        matched, _ = cache.lookup(head + [9])
        assert matched == len(head)
        assert (arena.slabs_allocated, arena.slabs_reused) == (allocated, reused)
        assert arena.bytes_copied == copied
        # a context that runs on past the stored path copies only its new columns
        column_bytes = 2 * sum(layer.view()[0][0, :, :1].nbytes for layer in caches)
        cache.insert(head + [6, 7], caches)
        assert arena.bytes_copied == copied + 2 * column_bytes
        assert len(cache) == 2
        for layer in caches:
            layer.release()
        cache.clear()
        assert arena.bytes_in_use == 0

    def test_geometric_growth_amortizes_copies(self):
        arena = KVArena(block_size=4)
        cache = KVCache(arena)
        column = np.ones((1, 2, 1, 4), dtype=np.float32)
        for _ in range(256):
            cache.append(column, column)
        final_bytes = cache._slab.k.nbytes + cache._slab.v.nbytes
        assert cache.length == 256
        # Doubling growth copies each byte O(1) times on average.
        assert arena.bytes_copied < 3 * final_bytes
        assert arena.cow_copies == 0

    def test_append_within_capacity_allocates_nothing(self):
        arena = KVArena(block_size=32)
        cache = KVCache(arena)
        column = np.ones((1, 2, 1, 4), dtype=np.float32)
        cache.append(column, column)
        assert arena.slabs_allocated == 1
        baseline = cache.last_append_moved_bytes
        for _ in range(31):
            cache.append(column, column)
        assert arena.slabs_allocated == 1
        assert arena.bytes_copied == 0
        assert cache.last_append_moved_bytes == baseline  # flat per-step traffic

    def test_dense_cache_traffic_grows_with_length(self):
        cache = DenseKVCache()
        column = np.ones((1, 2, 1, 4), dtype=np.float32)
        cache.append(column, column)
        early = cache.last_append_moved_bytes
        for _ in range(31):
            cache.append(column, column)
        assert cache.length == 32
        assert cache.last_append_moved_bytes > 10 * early  # O(T) per append


class TestHotPathCaches:
    def test_causal_mask_is_memoized_and_readonly(self):
        a = causal_mask(4, 9, 6)
        b = causal_mask(4, 9, 6)
        assert np.shares_memory(a, b)
        assert not a.flags.writeable
        expected = np.triu(np.ones((4, 9), dtype=bool), k=6)
        np.testing.assert_array_equal(a, expected)

    def test_vacuous_mask_is_none(self):
        assert causal_mask(1, 5, 5) is None  # the every-decode-step shape

    def test_rotary_tables_shared_across_layers_and_models(self, network):
        cos0 = network.blocks[0].attention._cos
        cos1 = network.blocks[1].attention._cos
        assert cos0 is cos1
        assert not cos0.flags.writeable
        twin = DecoderLM(network.config, numpy_rng(99))
        assert twin.blocks[0].attention._cos is cos0
        cos, sin = shared_rotary_tables(network.config.n_positions, network.config.dim // network.config.n_heads)
        assert cos is cos0


class TestPrefixCacheAccounting:
    def test_short_prompt_counts_as_skipped_not_miss(self):
        cache = PrefixCache(4)
        assert cache.lookup([5]) is None
        stats = cache.stats()
        assert stats["skipped"] == 1
        assert stats["misses"] == 0
        assert stats["hit_rate"] == 0.0
        # Backward-compatible keys are all still present.
        for key in ("entries", "capacity", "hits", "misses", "evictions", "tokens_reused", "hit_rate"):
            assert key in stats


class TestEngineIntegration:
    def test_engine_stats_expose_arena(self, network):
        engine = InferenceEngine(network, prefix_cache_capacity=4)
        engine.generate_batch([[1, 2, 3], [4, 5]], max_new_tokens=6)
        stats = engine.stats()
        arena = stats["kv_arena"]
        assert arena["block_size"] == DEFAULT_BLOCK_SIZE
        assert arena["appends"] > 0
        assert arena["peak_bytes_in_use"] > 0
        assert stats["prefix_cache"]["skipped"] == 0
