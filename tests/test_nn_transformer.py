"""Tests for repro.nn.transformer (the full decoder LM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError, ShapeError
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.transformer import DecoderLM, TransformerConfig
from tests.conftest import evaluate_loss


@pytest.fixture()
def small_model():
    config = TransformerConfig(vocab_size=32, n_positions=16, dim=16, n_layers=2, n_heads=4)
    return DecoderLM(config, numpy_rng(0))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            TransformerConfig(vocab_size=8, dim=30, n_heads=4)

    def test_even_dim_required(self):
        with pytest.raises(ShapeError):
            TransformerConfig(vocab_size=8, dim=33, n_heads=3)

    def test_mlp_dim(self):
        config = TransformerConfig(vocab_size=8, dim=16, n_heads=4, mlp_ratio=4)
        assert config.mlp_dim == 64


class TestForward:
    def test_logits_shape(self, small_model):
        logits = small_model.forward(np.zeros((2, 5), dtype=np.int64), training=False)
        assert logits.shape == (2, 5, 32)

    def test_requires_2d(self, small_model):
        with pytest.raises(ShapeError):
            small_model.forward(np.zeros(5, dtype=np.int64))

    def test_unknown_token_id_rejected(self, small_model):
        bad = np.array([[small_model.config.vocab_size + 5]], dtype=np.int64)
        with pytest.raises(ReproError):
            small_model.forward(bad, training=False)

    def test_deterministic(self, small_model):
        ids = np.arange(10, dtype=np.int64)[None]
        a = small_model.forward(ids, training=False)
        b = small_model.forward(ids, training=False)
        assert np.array_equal(a, b)

    def test_causality_end_to_end(self, small_model):
        ids = np.arange(8, dtype=np.int64)[None]
        base = small_model.forward(ids, training=False)
        changed = ids.copy()
        changed[0, 7] = 31
        out = small_model.forward(changed, training=False)
        assert np.allclose(out[0, :7], base[0, :7], atol=1e-4)


class TestTraining:
    def test_full_model_gradient_check(self, small_model):
        ids = np.array([[1, 2, 3, 4, 5, 6]], dtype=np.int64)
        targets = np.roll(ids, -1, axis=1)
        targets[:, -1] = -1
        small_model.zero_grad()
        small_model.loss_and_backward(ids, targets)
        parameter = small_model.token_embedding.weight
        eps = 1e-3
        for i, j in [(1, 0), (3, 7)]:
            original = parameter.data[i, j]
            parameter.data[i, j] = original + eps
            up = evaluate_loss(small_model, ids, targets)
            parameter.data[i, j] = original - eps
            down = evaluate_loss(small_model, ids, targets)
            parameter.data[i, j] = original
            numerical = (up - down) / (2 * eps)
            assert parameter.grad[i, j] == pytest.approx(numerical, abs=5e-3)

    def test_memorizes_repeating_sequence(self, small_model):
        ids = np.array([[1, 2, 3, 4] * 4], dtype=np.int64)
        targets = np.roll(ids, -1, axis=1)
        targets[:, -1] = -1
        optimizer = Adam(small_model.parameters(), learning_rate=3e-3)
        first_loss = None
        for _ in range(120):
            small_model.zero_grad()
            loss = small_model.loss_and_backward(ids, targets)
            if first_loss is None:
                first_loss = loss
            optimizer.step()
        assert loss < first_loss * 0.2
        logits = small_model.forward(ids, training=False)
        predictions = logits[0, :-1].argmax(axis=-1)
        assert (predictions == targets[0, :-1]).mean() > 0.9

    def test_evaluate_loss_does_not_touch_grads(self, small_model):
        ids = np.array([[1, 2, 3]], dtype=np.int64)
        targets = np.array([[2, 3, -1]], dtype=np.int64)
        small_model.zero_grad()
        evaluate_loss(small_model, ids, targets)
        for parameter in small_model.parameters():
            assert np.allclose(parameter.grad, 0.0)


class TestIncremental:
    def test_matches_full_forward(self, small_model):
        ids = np.arange(10, dtype=np.int64)[None]
        full = small_model.forward(ids, training=False)
        caches = small_model.new_cache()
        chunks = [small_model.forward_incremental(ids[:, :4], caches)]
        for position in range(4, 10):
            chunks.append(small_model.forward_incremental(ids[:, position:position + 1], caches))
        stitched = np.concatenate(chunks, axis=1)
        assert np.allclose(stitched, full, atol=1e-4)


class TestStateDict:
    def test_roundtrip(self, small_model):
        state = small_model.state_dict()
        clone = DecoderLM(small_model.config, numpy_rng(99))
        clone.load_state_dict(state)
        ids = np.arange(6, dtype=np.int64)[None]
        assert np.allclose(
            clone.forward(ids, training=False), small_model.forward(ids, training=False)
        )

    def test_missing_key_rejected(self, small_model):
        state = small_model.state_dict()
        state.pop("ln_f.gamma")
        clone = DecoderLM(small_model.config, numpy_rng(0))
        with pytest.raises(ShapeError):
            clone.load_state_dict(state)

    def test_shape_mismatch_rejected(self, small_model):
        state = small_model.state_dict()
        state["ln_f.gamma"] = np.zeros(99, dtype=np.float32)
        clone = DecoderLM(small_model.config, numpy_rng(0))
        with pytest.raises(ShapeError):
            clone.load_state_dict(state)

    def test_parameter_names_unique(self, small_model):
        names = [parameter.name for parameter in small_model.parameters()]
        assert len(names) == len(set(names))
