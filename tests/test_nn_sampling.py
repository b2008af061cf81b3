"""Tests for repro.nn.sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig


@pytest.fixture(scope="module")
def trained_model():
    """A model trained to continue the cycle 1,2,3,4,... ."""
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


class TestGreedy:
    def test_continues_pattern(self, trained_model):
        result = generate_greedy(trained_model, [1, 2, 3, 4, 1, 2], max_new_tokens=6)
        assert result.token_ids == [3, 4, 1, 2, 3, 4]
        assert result.stop_reason == "max_tokens"

    def test_stop_token(self, trained_model):
        next_token = generate_greedy(trained_model, [1, 2], max_new_tokens=4).token_ids[0]
        result = generate_greedy(trained_model, [1, 2], max_new_tokens=4, stop_ids={next_token})
        assert result.token_ids == []
        assert result.stop_reason == "stop_token"

    def test_context_full(self, trained_model):
        # A near-window prompt with a huge budget is truncated to leave
        # room for min(budget, window // 2) tokens, generates exactly that
        # many, and reports the shortfall via effective_budget.
        window = trained_model.config.n_positions
        result = generate_greedy(trained_model, [1] * (window - 2), max_new_tokens=50)
        assert result.stop_reason == "context_full"
        assert result.effective_budget == window // 2
        assert len(result.token_ids) == result.effective_budget

    def test_long_prompt_left_truncated(self, trained_model):
        result = generate_greedy(trained_model, [1, 2, 3, 4] * 20, max_new_tokens=2)
        assert len(result.token_ids) > 0

    def test_budget_survives_long_prompt(self, trained_model):
        # The classic silent-stop bug: a long prompt plus a modest budget
        # must deliver the full budget, not context_full after one token.
        window = trained_model.config.n_positions
        budget = 6
        result = generate_greedy(trained_model, [1, 2, 3, 4] * 20, max_new_tokens=budget)
        assert result.stop_reason == "max_tokens"
        assert result.effective_budget == budget
        assert len(result.token_ids) == budget

    def test_effective_budget_boundary(self, trained_model):
        # Prompt exactly fills window - budget: nothing truncated, full
        # budget effective; one token longer and the truncation kicks in.
        window = trained_model.config.n_positions
        budget = 4
        exact = generate_greedy(trained_model, [1, 2, 3, 4] * ((window - budget) // 4), max_new_tokens=budget)
        assert exact.effective_budget == budget
        assert exact.stop_reason in ("max_tokens", "context_full")
        assert len(exact.token_ids) == budget

    def test_short_prompt_budget_capped_by_window(self, trained_model):
        # No truncation needed, but the window still caps the budget.
        window = trained_model.config.n_positions
        prompt = [1, 2, 3, 4]
        result = generate_greedy(trained_model, prompt, max_new_tokens=window * 2)
        assert result.effective_budget == window - len(prompt)
        assert result.stop_reason == "context_full"
        assert len(result.token_ids) == result.effective_budget

    def test_empty_prompt_rejected(self, trained_model):
        with pytest.raises(GenerationError):
            generate_greedy(trained_model, [], max_new_tokens=2)

    def test_bad_budget_rejected(self, trained_model):
        with pytest.raises(GenerationError):
            generate_greedy(trained_model, [1], max_new_tokens=0)
