"""The tie rule: the one definition of "same output" the conformance suites use.

``tests/conftest.py: greedy_or_tie`` accepts a completion equal to
``generate_greedy``'s, or one whose every token lies within ``TIE_MARGIN``
of its own step's best logit: an exact match, a swap at a constructed tie,
and not a swap of a token that is not tied.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig
from tests.conftest import TIE_MARGIN, greedy_or_tie

PROMPT = [3, 1, 4, 1, 5, 9]
BUDGET = 6


def _last_logits(model: DecoderLM, ids: list[int]) -> np.ndarray:
    return model.forward(np.array([ids], dtype=np.int64), training=False)[0, -1]


@pytest.fixture(scope="module")
def tied():
    """A model whose first greedy step has its top two logits 1e-5 apart."""
    config = TransformerConfig(vocab_size=24, n_positions=32, dim=16, n_layers=2, n_heads=4)
    model = DecoderLM(config, numpy_rng(4))
    logits = _last_logits(model, PROMPT)
    best, second = (int(token) for token in np.argsort(logits)[::-1][:2])
    model.lm_head.bias.data[second] += logits[best] - logits[second] - np.float32(1e-5)
    logits = _last_logits(model, PROMPT)
    assert 0 < logits[best] - logits[second] < TIE_MARGIN
    return model, best, second


def test_accepts_an_exact_match(tied):
    model, _, _ = tied
    assert greedy_or_tie(model, PROMPT, generate_greedy(model, PROMPT, BUDGET).token_ids, BUDGET)


def test_accepts_a_swap_at_a_tie(tied):
    model, best, second = tied
    greedy = generate_greedy(model, PROMPT, BUDGET).token_ids
    assert greedy[0] == best
    swapped = [second] + generate_greedy(model, PROMPT + [second], BUDGET - 1).token_ids
    assert swapped != greedy
    assert greedy_or_tie(model, PROMPT, swapped, BUDGET)


def test_rejects_a_swap_of_a_token_that_is_not_tied(tied):
    model, _, _ = tied
    greedy = generate_greedy(model, PROMPT, BUDGET).token_ids
    logits = _last_logits(model, PROMPT + greedy[:2])
    worst = int(logits.argmin())
    assert logits.max() - logits[worst] > TIE_MARGIN
    assert not greedy_or_tie(model, PROMPT, greedy[:2] + [worst] + greedy[3:], BUDGET)
