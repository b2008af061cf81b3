"""The numerical properties ``repro.nn``'s inference path rests on.

* every forward is float32 end to end (a float64 *NumPy* scalar multiplying
  an activation silently promotes everything after it under NumPy 2);
* the lean forms are the old formulas, bit for bit — the old formula is
  written out in each test as the reference;
* attention's q/k/v weights alias one packed array, re-packed if one is rebound;
* the seeded initialisation did not move;
* sequential, batched and continuously batched greedy decoding agree at the
  benchmark's model size.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import itertools

import numpy as np
import pytest

from repro.engine import InferenceEngine
from repro.engine.batched_decode import DecodingBatch
from repro.engine.batcher import ContinuousBatcher, GenerationRequest
from repro.errors import ShapeError
from repro.fleet.loadgen import generate_prompts
from repro.fleet.worker import SPEC_TRAIN_TEXTS, SPEC_VOCAB_SIZE, WorkerSpec
from repro.model import load_checkpoint, save_checkpoint
from repro.model.lm import WisdomModel
from repro.nn.attention import CausalSelfAttention, causal_mask
from repro.nn.kv_arena import DenseKVCache, KVCache, SlotKVCache, SlotRow
from repro.nn.layers import LayerNorm, softmax
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.rotary import apply_rotary
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.tokenizer.bpe import BpeTokenizer
from tests.conftest import drain, evaluate_loss, greedy_or_tie, greedy_via_admit_prompts

#: The benchmark's model (``bench/fleet.py: SPEC``).
BENCH_SPEC = WorkerSpec(seed=0, dim=64, n_layers=2, n_heads=4, n_positions=384)
BENCH_CONFIG = TransformerConfig(vocab_size=300, n_positions=384, dim=64, n_layers=2, n_heads=4)
#: sha1 over sorted parameter names + bytes of ``DecoderLM(BENCH_CONFIG, numpy_rng(0))``,
#: recorded before the q/k/v weights were packed.
SEEDED_STATE_SHA1 = "3e47782affd2ce32d72d0a1e90298b82fd7c18a3"

# head_dim 12: 1/sqrt(12) is not a power of two, so a float64 scale cannot hide.
SMALL_CONFIG = TransformerConfig(vocab_size=40, n_positions=32, dim=48, n_layers=2, n_heads=4)


@pytest.fixture()
def network() -> DecoderLM:
    return DecoderLM(SMALL_CONFIG, numpy_rng(3))


def _ids(batch: int, length: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(1, SMALL_CONFIG.vocab_size, size=(batch, length))


class TestFloat32EndToEnd:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_training_forward_and_loss_logits(self, network, batch):
        ids = _ids(batch, 7)
        assert network.forward(ids, training=True).dtype == np.float32
        assert network.forward(ids, training=False).dtype == np.float32
        # the loss is a Python float: look at the logits it built.
        seen = []
        forward = network.lm_head.forward

        def recording(x, training=True):
            seen.append(forward(x, training))
            return seen[-1]

        network.lm_head.forward = recording
        try:
            evaluate_loss(network, ids, np.roll(ids, -1, axis=1))
        finally:
            del network.lm_head.forward
        assert [logits.dtype for logits in seen] == [np.float32]

    @pytest.mark.parametrize(
        "batch, new, slots, dense",
        list(itertools.product([1, 3], [1, 5], [False, True], [False, True])),
    )
    def test_incremental_forward(self, network, batch, new, slots, dense):
        """batch x new tokens x one offset or a slot per row x arena/dense warm cache.

        With a slot per row, row b warms to warm + b columns in its own slot
        row as admission does: prefilled in place (arena), or prefilled in
        a dense cache whose columns are then appended into the row (dense).
        """
        warm = 4
        fresh = network.new_dense_cache if dense else network.new_cache
        if slots:
            config = network.config
            caches = [
                SlotKVCache(None, batch, config.n_heads, config.dim // config.n_heads, config.n_positions)
                for _ in network.blocks
            ]
        else:
            caches = fresh()
        try:
            for row in range(batch if slots else 0):
                opened = [SlotRow(cache) for cache in caches]
                ids = _ids(1, warm + row, seed=row)
                if dense:
                    own = fresh()
                    first = network.forward_incremental(ids, own)
                    for slot_row, layer_cache in zip(opened, own):
                        slot_row.append(*layer_cache.view())
                else:
                    first = network.forward_incremental(ids, opened)
                assert first.dtype == np.float32
                for cache, slot_row in zip(caches, opened):
                    cache.seat(slot_row)
            if not slots:
                first = network.forward_incremental(_ids(batch, warm), caches)
                assert first.dtype == np.float32
            logits = network.forward_incremental(_ids(batch, new, seed=1), caches)
            assert logits.dtype == np.float32
            for cache in caches:
                keys, values = (cache._slab.k, cache._slab.v) if slots else cache.view()
                assert keys.dtype == values.dtype == np.float32
        finally:
            for cache in caches:
                if not isinstance(cache, DenseKVCache):
                    cache.release()


class TestLeanFormsAreTheOldFormulas:
    @pytest.mark.parametrize("shape", [(1, 1, 64), (3, 5, 48), (2, 7, 10)])
    def test_layernorm_equals_the_ndarray_mean_form(self, shape):
        rng = np.random.default_rng(1)
        layer = LayerNorm("ln", shape[-1])
        layer.gamma.data[:] = rng.normal(1.0, 0.2, size=shape[-1])
        layer.beta.data[:] = rng.normal(0.0, 0.2, size=shape[-1])
        x = rng.normal(0.0, 3.0, size=shape).astype(np.float32)

        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(variance + layer.eps)
        expected = centered * inv_std * layer.gamma.data + layer.beta.data

        out = layer.forward(x, training=True)
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)
        # The cached normalised activations are not the returned buffer.
        assert not np.shares_memory(out, layer._cache[0])

    @pytest.mark.parametrize("batch, gathered", [(1, False), (3, False), (3, True)])
    def test_one_stacked_rotary_call_equals_two(self, batch, gathered):
        attention = CausalSelfAttention("a", 48, 4, 32, numpy_rng(0))
        rng = np.random.default_rng(2)
        heads, new, head_dim = 4, 5, 12
        qkv = rng.normal(size=(3, batch, heads, new, head_dim)).astype(np.float32)
        if gathered:
            positions = rng.integers(0, 32, size=(batch, new))
            cos, sin = attention._cos[positions][:, None], attention._sin[positions][:, None]
        else:
            cos, sin = attention._cos[7 : 7 + new][None, None], attention._sin[7 : 7 + new][None, None]
        queries, keys = apply_rotary(qkv[:2], cos, sin)
        assert np.array_equal(queries, apply_rotary(qkv[0], cos, sin))
        assert np.array_equal(keys, apply_rotary(qkv[1], cos, sin))

    def test_unpadded_step_passes_no_positions_and_equals_explicit_ones(self, network, monkeypatch):
        """Rows of equal length step with no per-row offsets; spelling every
        row's offset out gives the same bits."""
        prompts = [[3, 4, 5, 6, 7], [8, 9, 10, 11, 12]]  # equal lengths: one shared offset
        implicit, explicit = DecodingBatch(network, 2), DecodingBatch(network, 2)
        for batch in (implicit, explicit):
            batch.admit_prompts(prompts, [0, 1])
        passed = []

        def spelled_out(cache):
            return np.array(cache.lengths, dtype=np.int64)

        try:
            for _ in range(4):
                passed.append(implicit.caches[0].row_offsets())
                new = implicit.step()
                with monkeypatch.context() as patch:
                    patch.setattr(SlotKVCache, "row_offsets", spelled_out)
                    old = explicit.step()
                assert old == new
                for a, b in zip(implicit.caches, explicit.caches):  # layer 2's K/V carry layer 1's output bits
                    assert a.lengths == b.lengths
                    for row, length in enumerate(a.lengths):
                        assert np.array_equal(a._slab.k[row, :, :length], b._slab.k[row, :, :length])
                        assert np.array_equal(a._slab.v[row, :, :length], b._slab.v[row, :, :length])
                for batch in (implicit, explicit):
                    for row, token in zip(batch.rows, new):
                        row.pending = token
            assert passed == [None] * 4
        finally:
            implicit.retire([0, 1])
            explicit.retire([0, 1])

    def test_one_token_step_equals_three_separate_projections(self):
        """The pre-packing attention step, written out, on the same cache contents.

        Bitwise on every OpenBLAS build seen so far: with one input row each
        output element is one length-``dim`` dot product whichever weight
        layout it is read from.
        """
        attention = CausalSelfAttention("a", 64, 4, 32, numpy_rng(5))
        rng = np.random.default_rng(6)
        context = rng.normal(size=(2, 9, 64)).astype(np.float32)
        x = rng.normal(size=(2, 1, 64)).astype(np.float32)
        cache, reference = KVCache(), DenseKVCache()
        try:
            attention.forward_incremental(context, cache)
            reference.append(*(np.array(array) for array in cache.view()))
            out = attention.forward_incremental(x, cache)

            queries, keys, values = (
                attention._split_heads(x @ proj.weight.data)
                for proj in (attention.query_proj, attention.key_proj, attention.value_proj)
            )
            cos, sin = attention._cos[9:10][None, None], attention._sin[9:10][None, None]
            all_keys, all_values = reference.append(apply_rotary(keys, cos, sin), values)
            scores = apply_rotary(queries, cos, sin) @ all_keys.transpose(0, 1, 3, 2)
            scores *= 1.0 / np.sqrt(attention.head_dim)  # in place: float32, as it always was
            merged = attention._merge_heads(softmax(scores) @ all_values)
            expected = merged @ attention.out_proj.weight.data + attention.out_proj.bias.data

            assert out.dtype == expected.dtype == np.float32
            assert np.array_equal(out, expected)
            assert all(np.array_equal(a, b) for a, b in zip(cache.view(), reference.view()))
        finally:
            cache.release()

    @pytest.mark.parametrize("rows", [1, 4, 17, 120])
    def test_packed_matmul_matches_separate_matmuls(self, rows):
        # Not bitwise: that identity belongs to the BLAS kernel, not to us.
        attention = CausalSelfAttention("a", 64, 4, 32, numpy_rng(7))
        x = np.random.default_rng(rows).normal(size=(2, rows, 64)).astype(np.float32)
        packed = x @ attention._qkv
        assert packed.dtype == np.float32
        for index, proj in enumerate((attention.query_proj, attention.key_proj, attention.value_proj)):
            separate = proj.forward(x, training=False)
            assert np.allclose(packed[..., index * 64 : (index + 1) * 64], separate, rtol=0.0, atol=1e-6)

    def test_incremental_attention_keeps_the_input_width_check(self):
        attention = CausalSelfAttention("a", 16, 4, 32, numpy_rng(0))
        with pytest.raises(ShapeError):
            attention.forward_incremental(np.zeros((1, 2, 12), dtype=np.float32), DenseKVCache())


def _greedy_tokens(network: DecoderLM) -> list[int]:
    return generate_greedy(network, [3, 4, 5, 6, 7, 8], 8).token_ids


def _fresh_twin(network: DecoderLM) -> DecoderLM:
    """A newly built model given ``network``'s weights by in-place writes only."""
    twin = DecoderLM(network.config, numpy_rng(99))
    weights = network.state_dict()
    for parameter in twin.parameters():
        np.copyto(parameter.data, weights[parameter.name])
    return twin


def _assert_packed(network: DecoderLM) -> None:
    # Generate first: a writer may rebind a weight, and the incremental
    # forward is where attention re-packs — before it reads anything.
    assert _greedy_tokens(network) == _greedy_tokens(_fresh_twin(network))
    for block in network.blocks:
        attention = block.attention
        dim = attention.dim
        for index, proj in enumerate((attention.query_proj, attention.key_proj, attention.value_proj)):
            assert proj.weight.data.base is attention._qkv
            assert np.shares_memory(proj.weight.data, attention._qkv)
            assert np.array_equal(proj.weight.data, attention._qkv[:, index * dim : (index + 1) * dim])
    # The training path reads the views, the inference path the packed array.
    ids = _ids(1, 6)
    incremental = network.forward_incremental(ids, network.new_dense_cache())
    assert np.allclose(incremental, network.forward(ids, training=False), rtol=0.0, atol=1e-5)


class TestPackedQkvAliasing:
    def test_after_construction(self, network):
        _assert_packed(network)

    def test_after_an_adam_step(self, network):
        before = _greedy_tokens(network)
        optimizer = Adam(network.parameters(), learning_rate=0.05)
        ids = _ids(2, 8)
        network.zero_grad()
        network.loss_and_backward(ids, np.roll(ids, -1, axis=1))
        packed_before = [block.attention._qkv.copy() for block in network.blocks]
        optimizer.step()
        for block, old in zip(network.blocks, packed_before):
            assert not np.array_equal(block.attention._qkv, old)  # the update landed in the packed array
        _assert_packed(network)
        assert _greedy_tokens(network) != before  # lr 0.05 moves every weight: a stale copy would show

    def test_after_load_state_dict(self, network):
        other = DecoderLM(SMALL_CONFIG, numpy_rng(11))
        network.load_state_dict(other.state_dict())
        _assert_packed(network)
        expected = _greedy_tokens(other)
        assert _greedy_tokens(network) == expected
        other.blocks[0].attention._qkv += 1.0  # copied in, not adopted: the source may move on
        assert _greedy_tokens(network) == expected

    def test_load_state_dict_casts_float64_checkpoints(self, network):
        other = DecoderLM(SMALL_CONFIG, numpy_rng(12))
        network.load_state_dict({k: v.astype(np.float64) for k, v in other.state_dict().items()})
        assert {parameter.data.dtype for parameter in network.parameters()} == {np.dtype(np.float32)}
        _assert_packed(network)
        assert _greedy_tokens(network) == _greedy_tokens(other)

    @pytest.mark.parametrize("which", ["query_proj", "key_proj", "value_proj"])
    def test_a_rebound_weight_is_repacked_before_it_is_read(self, network, which):
        # No writer in the tree has to know the layout: rebinding any one of
        # the three ``weight.data`` is healed by the next incremental forward.
        ids = _ids(1, 6)
        stale = network.forward_incremental(ids, network.new_dense_cache())
        for block in network.blocks:
            weight = getattr(block.attention, which).weight
            weight.data = weight.data * np.float32(40.0)
            assert weight.data.base is not block.attention._qkv
        fresh = network.forward_incremental(ids, network.new_dense_cache())
        assert not np.allclose(fresh, stale, rtol=0.0, atol=1e-3)
        _assert_packed(network)

    def test_after_deepcopy(self, network):
        clone = copy.deepcopy(network)  # copies of views own their memory: re-packed on first use
        _assert_packed(clone)
        assert _greedy_tokens(clone) == _greedy_tokens(network)
        assert not np.shares_memory(clone.blocks[0].attention._qkv, network.blocks[0].attention._qkv)

    def test_after_a_checkpoint_round_trip(self, network, tmp_path):
        tokenizer = BpeTokenizer.train(["- name: install nginx\n  apt:\n    name: nginx\n"], vocab_size=262)
        save_checkpoint(WisdomModel("numerics", tokenizer, network), tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt").network
        _assert_packed(restored)
        assert _greedy_tokens(restored) == _greedy_tokens(network)
        for name, array in network.state_dict().items():
            assert np.array_equal(restored.state_dict()[name], array)


def test_causal_mask_is_a_view_of_a_table_that_grows_geometrically():
    from repro.nn import attention as attention_module

    for new, total, diagonal in [(5, 5, 1), (4, 9, 6), (3, 40, 30), (17, 33, 17)]:
        mask = causal_mask(new, total, diagonal)
        assert np.array_equal(mask, np.triu(np.ones((new, total), dtype=bool), k=diagonal))
    extent = attention_module._causal_table.shape[0]
    causal_mask(2, extent + 1, extent)  # one past the table: it at least doubles ...
    table = attention_module._causal_table
    assert table.shape[0] >= 2 * extent
    for total in range(extent + 2, 2 * extent + 1):  # ... so steadily growing extends rebuild nothing
        assert np.shares_memory(causal_mask(2, total, total - 1), table)
    assert attention_module._causal_table is table
    with pytest.raises(ValueError):
        causal_mask(3, 5, 0)  # row ``diagonal - 1`` of the table: no such row


def test_seeded_state_dict_did_not_move():
    state = DecoderLM(BENCH_CONFIG, numpy_rng(0)).state_dict()
    digest = hashlib.sha1()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(state[name].tobytes())
    assert digest.hexdigest() == SEEDED_STATE_SHA1


def test_three_decoders_agree_at_the_bench_spec():
    """generate_greedy == admit_prompts + step == ContinuousBatcher, 32 prompts,
    each by the tie rule (``tests/conftest.py: greedy_or_tie``)."""
    spec = BENCH_SPEC
    tokenizer = BpeTokenizer.train(list(SPEC_TRAIN_TEXTS), vocab_size=SPEC_VOCAB_SIZE)
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        n_positions=spec.n_positions,
        dim=spec.dim,
        n_layers=spec.n_layers,
        n_heads=spec.n_heads,
    )
    model = DecoderLM(config, numpy_rng(spec.seed))
    prompts = [tokenizer.encode(text) for text in generate_prompts("shared_prefix", 32, seed=19)]
    budget = 12

    for start in range(0, len(prompts), 4):
        chunk = prompts[start : start + 4]
        for prompt, result in zip(chunk, greedy_via_admit_prompts(model, chunk, budget)):
            assert greedy_or_tie(model, prompt, result.token_ids, budget)

    replica_rows = inspect.signature(InferenceEngine).parameters["max_batch_size"].default
    batcher = ContinuousBatcher(model, max_batch_size=replica_rows)
    requests = []
    for index, prompt in enumerate(prompts):
        planned, effective = plan_prompt(config.n_positions, prompt, budget)
        requests.append(
            GenerationRequest(
                request_id=index,
                prompt_ids=planned,
                max_new_tokens=budget,
                effective_budget=effective,
                stop_ids=frozenset(),
            )
        )
        batcher.submit(requests[-1])
    drain(batcher)
    for prompt, request in zip(prompts, requests):
        assert greedy_or_tie(model, prompt, request.result.token_ids, budget)
    assert batcher.stats()["mean_batch_occupancy"] > 1.0
