"""Tests for repro.engine (batched decode, prefix cache, batcher, facade).

The load-bearing property is *batched-vs-sequential equivalence*: greedy
decoding through the engine must produce token-for-token the same outputs
as N sequential :func:`generate_greedy` calls — padding/masking mistakes
show up as silently different tokens, never as crashes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import (
    ContinuousBatcher,
    DecodingBatch,
    GenerationRequest,
    InferenceEngine,
    PrefixCache,
    RequestState,
)
from repro.errors import EngineError, InjectedFault
from repro.faults import FakeClock, FaultInjector, use
from repro.model import WisdomModel, restore_weights, snapshot_weights
from repro.nn.kv_arena import KVArena
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from tests.conftest import drain, gather_into_slot, greedy_or_tie, greedy_via_admit_prompts


@pytest.fixture(scope="module")
def trained_model():
    """A model trained to continue the cycle 1,2,3,4,... (peaked logits)."""
    config = TransformerConfig(vocab_size=16, n_positions=24, dim=16, n_layers=2, n_heads=4)
    model = DecoderLM(config, numpy_rng(1))
    ids = np.array([[1, 2, 3, 4] * 5], dtype=np.int64)
    targets = np.roll(ids, -1, axis=1)
    targets[:, -1] = -1
    optimizer = Adam(model.parameters(), learning_rate=3e-3)
    for _ in range(150):
        model.zero_grad()
        model.loss_and_backward(ids, targets)
        optimizer.step()
    return model


# Mixed lengths on purpose: padding bugs only show up when rows differ.
MIXED_PROMPTS = [
    [1, 2, 3, 4, 1, 2],
    [2, 3, 4],
    [1, 2],
    [3, 4, 1, 2, 3, 4, 1],
    [4, 1, 2, 3, 4],
]


def assert_matches_sequential(model, results, prompts, max_new_tokens, stop_ids=frozenset()):
    for prompt, got in zip(prompts, results):
        want = generate_greedy(model, prompt, max_new_tokens, stop_ids=stop_ids)
        assert greedy_or_tie(model, prompt, got.token_ids, max_new_tokens, stop_ids), (
            f"prompt {prompt}: {got} != {want}"
        )
        assert got.stop_reason == want.stop_reason
        assert got.effective_budget == want.effective_budget


class TestBatchedVsSequentialEquivalence:
    def test_engine_mixed_lengths(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=3)
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8)

    def test_engine_with_early_stop_token(self, trained_model):
        # Token 3 follows some prompts quickly, so rows finish at different
        # steps and retire mid-flight while others keep decoding.
        engine = InferenceEngine(trained_model, max_batch_size=4)
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8, stop_ids={3})
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8, stop_ids={3})
        assert any(result.stop_reason == "stop_token" for result in results)
        lengths = {len(result.token_ids) for result in results}
        assert len(lengths) > 1  # at least one row finished early

    def test_static_batched_prefill_path(self, trained_model):
        # DecodingBatch.admit_prompts seats every row before the first step:
        # mixed lengths share the batch from the start.
        results = greedy_via_admit_prompts(trained_model, MIXED_PROMPTS, max_new_tokens=8)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8)

    def test_static_batch_with_stop(self, trained_model):
        results = greedy_via_admit_prompts(trained_model, MIXED_PROMPTS, max_new_tokens=8, stop_ids={3})
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8, stop_ids={3})

    def test_window_filling_rows_retire_individually(self, trained_model):
        # Long prompts with a huge budget: every row must hit context_full
        # at its *own* window boundary, not a neighbour's.
        prompts = [[1, 2, 3, 4] * 5, [1, 2, 3, 4] * 3, [2, 3, 4, 1] * 4]
        engine = InferenceEngine(trained_model)
        results = engine.generate_batch(prompts, max_new_tokens=50)
        assert_matches_sequential(trained_model, results, prompts, 50)
        assert all(result.stop_reason == "context_full" for result in results)

    def test_batch_size_one_degenerates_cleanly(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=1)
        results = engine.generate_batch(MIXED_PROMPTS[:3], max_new_tokens=6)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS[:3], 6)


class TestPrefixCache:
    def test_lookup_reuses_longest_prefix(self, trained_model):
        engine = InferenceEngine(trained_model)
        prompt = [1, 2, 3, 4, 1, 2, 3, 4]
        first = engine.generate_batch([prompt], max_new_tokens=4)[0]
        extended = prompt + [1, 2]
        results = engine.generate_batch([extended], max_new_tokens=4)
        want = generate_greedy(trained_model, extended, max_new_tokens=4)
        assert results[0].token_ids == want.token_ids
        stats = engine.stats()["prefix_cache"]
        assert stats["hits"] == 1
        # the store holds the first request's fed context: its prompt and
        # every generated token but the last, which was never fed
        fed = prompt + first.token_ids[:-1]
        longest = len(os.path.commonprefix([fed, extended]))
        assert stats["tokens_reused"] == min(longest, len(extended) - 1) >= len(prompt)

    def test_prefix_never_covers_whole_prompt(self):
        cache = PrefixCache()
        fake = [_fake_kv(4)]
        assert cache.insert([5, 6, 7, 8], fake)
        match = cache.lookup([5, 6, 7, 8])
        assert match is not None
        assert match[0] == 3  # one token always left for live prefill
        ((keys, _),) = gather_into_slot(cache, match, 4)  # the admitted row's own copy
        np.testing.assert_array_equal(keys, fake[0].view()[0][:, :, :3])
        assert keys.shape[2] == 3  # the row's last column is the prefill's

    def test_insert_skips_covered_prompts(self):
        cache = PrefixCache()
        stored = cache.insert([5, 6, 7, 8], [_fake_kv(4)])
        assert stored is not None
        bytes_held = cache.stats()["bytes_held"]
        assert cache.insert([5, 6], [_fake_kv(2)]) is stored  # covered: nothing copied
        assert len(cache) == 1 and cache.stats()["bytes_held"] == bytes_held

    def test_eviction_is_lru(self):
        cache = PrefixCache(capacity=2)
        cache.insert([1, 1], [_fake_kv(2)])
        cache.insert([2, 2], [_fake_kv(2)])
        cache.lookup([1, 1, 9])  # refresh the first entry
        cache.insert([3, 3], [_fake_kv(2)])  # evicts [2, 2]
        assert cache.lookup([2, 2, 9]) is None
        assert cache.lookup([1, 1, 9]) is not None
        assert cache.stats()["evictions"] == 1

    def test_clear_preserves_lifetime_counters(self):
        cache = PrefixCache(capacity=2)
        cache.lookup([9, 9, 9])  # miss
        cache.insert([1, 1, 1], [_fake_kv(3)])
        cache.lookup([1, 1, 1, 2])  # hit
        before = cache.stats()
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup([1, 1, 1, 2]) is None  # entries really are gone
        after = cache.stats()
        assert after["entries"] == 0
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 1  # the probe above
        assert after["tokens_reused"] == before["tokens_reused"]
        assert after["evictions"] == 0  # clearing is not eviction

    def test_engine_stats_monotonic_across_cache_clear(self, trained_model):
        engine = InferenceEngine(trained_model)
        prompt = [1, 2, 3, 4, 1, 2, 3, 4]
        engine.generate_batch([prompt], max_new_tokens=4)
        engine.generate_batch([prompt + [1]], max_new_tokens=4)
        before = engine.stats()
        engine.prefix_cache.clear()
        engine.generate_batch([prompt], max_new_tokens=4)
        after = engine.stats()
        for key in ("completed_requests", "requests_submitted", "decode_tokens"):
            assert after[key] > before[key]
        for key in ("hits", "misses", "tokens_reused"):
            assert after["prefix_cache"][key] >= before["prefix_cache"][key], (
                f"prefix_cache.{key} went backwards across clear()"
            )

    def test_snapshot_is_isolated_from_caller(self):
        cache = PrefixCache()
        kv = _fake_kv(3)
        original = kv.view()[0].copy()
        cache.insert([7, 8, 9], [kv])
        kv.view()[0][...] = -1.0  # the caller's cache stays its own, and writable
        match = cache.lookup([7, 8, 9, 1])
        assert match is not None
        ((keys, _),) = gather_into_slot(cache, match, 4)
        np.testing.assert_array_equal(keys, original)


def _fake_kv(length: int):
    from repro.nn.attention import KVCache

    cache = KVCache()
    keys = np.arange(2 * length * 2, dtype=np.float32).reshape(1, 2, length, 2) / 7.0
    cache.append(keys, keys + 1.0)
    return cache


class TestContinuousBatcher:
    def test_admission_respects_max_batch_size(self, trained_model):
        batcher = ContinuousBatcher(trained_model, max_batch_size=2)
        requests = [_request(trained_model, i, prompt) for i, prompt in enumerate(MIXED_PROMPTS)]
        for request in requests:
            batcher.submit(request)
        assert batcher.queue_depth == len(MIXED_PROMPTS)
        batcher.step()
        assert batcher.active_size <= 2
        assert batcher.peak_batch_size <= 2
        drain(batcher)
        assert batcher.queue_depth == 0
        assert batcher.stats()["completed_requests"] == len(MIXED_PROMPTS)
        assert all(request.is_finished for request in requests)

    def test_new_requests_join_mid_flight(self, trained_model):
        # With capacity 3 and 5 requests, later requests are admitted only
        # once earlier rows retire — continuous, not static, batching.
        batcher = ContinuousBatcher(trained_model, max_batch_size=3)
        requests = [
            _request(trained_model, i, prompt, max_new_tokens=2 + 2 * i)
            for i, prompt in enumerate(MIXED_PROMPTS)
        ]
        for request in requests:
            batcher.submit(request)
        joined_late = False
        while batcher.step():
            if batcher.stats()["completed_requests"] and batcher.queue_depth < len(MIXED_PROMPTS) - 3:
                joined_late = batcher.active_size > 0
        assert batcher.stats()["completed_requests"] == len(MIXED_PROMPTS)
        assert joined_late
        assert batcher.stats()["mean_batch_occupancy"] > 1.0

    def test_request_lifecycle_and_timing(self, trained_model):
        # Timing runs on the swappable faults clock, so the assertions are
        # exact equalities, not >= 0 smoke checks against the wall clock.
        fake = FakeClock()
        with use(fake):
            batcher = ContinuousBatcher(trained_model, max_batch_size=2)
            request = _request(trained_model, 0, [1, 2, 3, 4], max_new_tokens=4)
            assert request.state is RequestState.QUEUED
            fake.advance(0.25)  # the request sits queued for exactly 0.25s
            batcher.submit(request)
            drain(batcher)
            assert request.state is RequestState.FINISHED
            timings = request.timings()
            assert timings["queued_s"] == 0.25
            assert timings["prefill_s"] == 0.0  # no clock advance inside run()
            assert timings["decode_s"] == 0.0
        with pytest.raises(EngineError):
            request.finish("max_tokens")  # double-finish is a bug

    def test_timings_exact_across_transitions(self, trained_model):
        fake = FakeClock(start=10.0)
        with use(fake):
            request = _request(trained_model, 0, [1, 2], max_new_tokens=2)
            fake.advance(0.25)
            request.begin_prefill()
            fake.advance(0.5)
            request.begin_decode()
            fake.advance(1.25)
            request.finish("max_tokens")
        # finished_at is pinned, so reading after the fake clock is gone
        # still yields the exact phase durations.
        assert request.timings() == {"queued_s": 0.25, "prefill_s": 0.5, "decode_s": 1.25}

    def test_result_before_finish_raises(self, trained_model):
        request = _request(trained_model, 0, [1, 2], max_new_tokens=2)
        with pytest.raises(EngineError):
            _ = request.result


def _request(model, request_id, prompt, max_new_tokens=8, stop_ids=frozenset()):
    planned, effective = plan_prompt(model.config.n_positions, prompt, max_new_tokens)
    return GenerationRequest(
        request_id=request_id,
        prompt_ids=planned,
        max_new_tokens=max_new_tokens,
        effective_budget=effective,
        stop_ids=frozenset(stop_ids),
    )


class TestDecodingBatch:
    def test_step_on_empty_batch_raises(self, trained_model):
        with pytest.raises(EngineError):
            DecodingBatch(trained_model, 2).step()

    def test_admit_beyond_the_last_slot_raises(self, trained_model):
        batch = DecodingBatch(trained_model, 2)
        batch.admit_prompts([[1, 2], [3, 4]], [0, 1])
        with pytest.raises(EngineError):
            batch.admit_prompts([[1, 2]], [2])
        batch.retire([0, 1])

    def test_retire_moves_the_last_row_into_the_freed_slot(self, trained_model):
        batch = DecodingBatch(trained_model, 3)
        batch.admit_prompts([[1, 2, 3, 4, 1, 2], [1, 2], [3, 4, 1]], [0, 1, 2])
        layer = batch.caches[0]
        last_row_keys = layer._slab.k[2, :, :3].copy()
        assert layer.lengths == [6, 2, 3]
        batch.retire([0])  # the long row leaves; the last row takes its slot
        assert [row.payload for row in batch.rows] == [2, 1]
        assert layer.lengths == [3, 2]
        assert np.array_equal(layer._slab.k[0, :, :3], last_row_keys)
        batch.retire([0, 1])
        assert batch.caches == [] and len(batch) == 0

    def test_opening_the_batch_claims_every_layer_or_none(self, trained_model):
        """The first row opens the batch: one slot slab per layer.  A fault
        on the second layer's acquire gives the first back, and a row
        opened but never admitted holds nothing: opening again reuses the
        open batch, and closing it returns every slab."""
        arena = KVArena()
        batch = DecodingBatch(trained_model, 2, arena)
        with FaultInjector(seed=0).on("kv_arena.acquire", at_calls=[2]):
            with pytest.raises(InjectedFault):
                batch.open_row()
        assert batch.caches == [] and arena.bytes_in_use == 0
        assert arena.slabs_dropped_live == 0
        opened = batch.open_row()
        assert len(opened) == len(trained_model.blocks) == len(batch.caches)
        acquired = arena.slabs_allocated + arena.slabs_reused
        batch.open_row()  # the first row was dropped, never admitted
        assert arena.slabs_allocated + arena.slabs_reused == acquired
        batch.close_if_empty()
        assert batch.caches == [] and arena.bytes_in_use == 0


class TestEngineFacade:
    def test_stats_shape(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=4)
        engine.generate_batch(MIXED_PROMPTS, max_new_tokens=4)
        stats = engine.stats()
        for key in (
            "queue_depth",
            "active_requests",
            "completed_requests",
            "decode_steps",
            "decode_tokens",
            "prefill_tokens",
            "mean_batch_occupancy",
            "prefix_cache",
        ):
            assert key in stats
        assert stats["completed_requests"] == len(MIXED_PROMPTS)
        assert stats["queue_depth"] == 0
        assert stats["active_requests"] == 0
        assert stats["mean_batch_occupancy"] > 1.0

    def test_empty_batch_returns_empty(self, trained_model):
        assert InferenceEngine(trained_model).generate_batch([]) == []

    def test_text_interface_requires_tokenizer(self, trained_model):
        engine = InferenceEngine(trained_model)
        with pytest.raises(EngineError):
            engine.complete_batch_detailed(["- name: install nginx\n"])

    def test_results_in_submission_order(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=2)
        prompts = list(reversed(MIXED_PROMPTS))
        results = engine.generate_batch(prompts, max_new_tokens=5)
        assert_matches_sequential(trained_model, results, prompts, 5)


class TestWisdomModelBatchInterface:
    PROMPTS = [
        "- name: Install SSH server\n",
        "- name: Start the service\n",
        "- name: Copy configuration\n",
        "- name: Install SSH server on RHEL\n",
    ]

    @staticmethod
    def reference(model, prompts, max_new_tokens):
        """Per prompt, the batch-1 oracle's text under the model's stop ids."""
        tokenizer = model.tokenizer
        stop_ids = frozenset({tokenizer.end_of_text_id, tokenizer.separator_id})
        return [
            tokenizer.decode(
                generate_greedy(
                    model.network, tokenizer.encode(prompt), max_new_tokens, stop_ids=stop_ids
                ).token_ids
            )
            for prompt in prompts
        ]

    def test_complete_batch_matches_complete(self, tiny_tokenizer, tiny_network):
        model = WisdomModel("test", tiny_tokenizer, tiny_network)
        batched = model.complete_batch(self.PROMPTS, max_new_tokens=8)
        assert batched == self.reference(model, self.PROMPTS, 8)
        assert batched == [model.complete(prompt, max_new_tokens=8) for prompt in self.PROMPTS]

    def test_a_weight_change_between_calls_decodes_under_the_new_weights(
        self, tiny_tokenizer, tiny_config
    ):
        # an engine kept across the two calls would hit its prefix store
        # and attend to the prompts' K/V computed under the old weights
        model = WisdomModel("test", tiny_tokenizer, DecoderLM(tiny_config, numpy_rng(0)))
        before = model.complete_batch(self.PROMPTS, max_new_tokens=8)
        restore_weights(model.network, snapshot_weights(DecoderLM(tiny_config, numpy_rng(1))))
        after = model.complete_batch(self.PROMPTS, max_new_tokens=8)
        assert after == self.reference(model, self.PROMPTS, 8)
        assert after != before


class TestStatsSnapshotConsistency:
    """Satellite: stats() is one consistent pass that never blocks on decode."""

    def test_stats_does_not_block_behind_the_request_lock(self, trained_model):
        # the engine's request lock is held for an ENTIRE generate_batch
        # call; a stats probe must not queue behind it
        engine = InferenceEngine(trained_model, max_batch_size=2)
        engine.generate_batch([[1, 2, 3]], max_new_tokens=3)
        acquired = engine._lock.acquire()
        assert acquired
        try:
            import threading

            result: dict = {}
            probe = threading.Thread(target=lambda: result.update(engine.stats()))
            probe.start()
            probe.join(timeout=5.0)
            assert result, "stats() blocked behind the engine request lock"
            assert result["completed_requests"] == 1
        finally:
            engine._lock.release()

    def test_snapshot_internally_consistent_under_concurrent_decode(self, trained_model):
        # occupancy_ticks and decode_tokens advance together inside one
        # stats_lock section; any torn read across a decode step would
        # break the identity mean_occupancy * steps == tokens
        import threading

        engine = InferenceEngine(trained_model, max_batch_size=4)
        prompts = [[1, 2, 3], [2, 3, 4, 5], [3, 4], [5, 6, 7]] * 4
        worker = threading.Thread(
            target=lambda: engine.generate_batch(prompts, max_new_tokens=12)
        )
        worker.start()
        saw_midflight = False
        try:
            while worker.is_alive():
                stats = engine.stats()
                assert stats["mean_batch_occupancy"] * stats["decode_steps"] == pytest.approx(
                    stats["decode_tokens"]
                )
                if 0 < stats["completed_requests"] < len(prompts):
                    saw_midflight = True
        finally:
            worker.join()
        stats = engine.stats()
        assert stats["completed_requests"] == len(prompts)
        del saw_midflight  # timing-dependent; the invariant check above is the point

    def test_batcher_stats_lock_is_not_the_engine_lock(self, trained_model):
        engine = InferenceEngine(trained_model)
        assert engine.batcher.stats_lock is not engine._lock
