"""Tests for repro.engine.speculative (draft-then-verify decoding).

The load-bearing property is *greedy identity*: speculative decoding must
produce byte-identical output to non-speculative greedy for every request
— regardless of draft quality, k, storage dtype, or prefix-cache sharing.
A draft only ever changes how many greedy tokens one model forward
verifies, never which tokens come out.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import (
    InferenceEngine,
    NgramDraft,
    RetrievalSuffixDraft,
    build_draft_model,
)
from repro.engine.speculative import DraftModel
from repro.errors import EngineError
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig
from tests.conftest import greedy_or_tie

pytestmark = pytest.mark.speculative


@pytest.fixture(scope="module")
def trained_model():
    """Same cycle-continuation model as test_engine: peaked, deterministic."""
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


MIXED_PROMPTS = [
    [1, 2, 3, 4, 1, 2],
    [2, 3, 4],
    [1, 2],
    [3, 4, 1, 2, 3, 4, 1],
    [4, 1, 2, 3, 4],
]


class CycleDraft:
    """A near-oracle drafter for the cycle model: proposes 1,2,3,4,1,..."""

    name = "cycle"

    def propose(self, context_ids: list[int], k: int) -> list[int]:
        last = context_ids[-1]
        return [((last - 1 + offset) % 4) + 1 for offset in range(1, k + 1)]


class JunkDraft:
    """Deterministic garbage: every draft token disagrees with the model."""

    name = "junk"

    def propose(self, context_ids: list[int], k: int) -> list[int]:
        return [((context_ids[-1] + 7 * offset) % 9) + 5 for offset in range(k)]


class SilentDraft:
    """Never has an opinion; the batcher must fall back to plain steps."""

    name = "silent"

    def propose(self, context_ids: list[int], k: int) -> list[int]:
        return []


class RowBiasedDraft:
    """Correct for contexts ending on even tokens, junk otherwise: rows
    genuinely accept different lengths in the same step."""

    name = "row-biased"

    def propose(self, context_ids: list[int], k: int) -> list[int]:
        if context_ids[-1] % 2 == 0:
            return CycleDraft().propose(context_ids, k)
        return JunkDraft().propose(context_ids, k)


def assert_matches_sequential(model, results, prompts, max_new_tokens, stop_ids=frozenset()):
    for prompt, got in zip(prompts, results):
        want = generate_greedy(model, prompt, max_new_tokens, stop_ids=stop_ids)
        assert greedy_or_tie(model, prompt, got.token_ids, max_new_tokens, stop_ids), (
            f"prompt {prompt}: {got} != {want}"
        )
        assert got.stop_reason == want.stop_reason
        assert got.effective_budget == want.effective_budget


class TestGreedyIdentity:
    """Speculative on/off must be byte-identical, whatever the draft says."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("drafter", [CycleDraft(), JunkDraft(), SilentDraft()])
    def test_identity_across_k_and_draft_quality(self, trained_model, drafter, k):
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=k, draft_model=drafter
        )
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8)

    def test_identity_with_stop_tokens(self, trained_model):
        engine = InferenceEngine(
            trained_model, max_batch_size=4, speculative_k=4, draft_model=CycleDraft()
        )
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8, stop_ids={3})
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8, stop_ids={3})
        assert any(result.stop_reason == "stop_token" for result in results)

    def test_identity_with_prefix_cache_shared_slabs(self, trained_model):
        """Later rounds prefill from frozen shared slabs, then roll back past them."""
        head = [1, 2, 3, 4, 1, 2, 3, 4]
        prompts = [head + tail for tail in ([1], [1, 2], [2, 3], [3], [4, 1])]
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=4, draft_model=CycleDraft()
        )
        for _ in range(3):  # repeat: rounds 2+ hit the prefix cache
            results = engine.generate_batch(prompts, max_new_tokens=6)
            assert_matches_sequential(trained_model, results, prompts, 6)
        assert engine.stats()["prefix_tokens_reused"] > 0
        engine.prefix_cache.clear()
        assert engine.stats()["kv_arena"]["bytes_in_use"] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identity_on_random_models_and_prompts(self, seed):
        """Property sweep: random weights, random prompts, fitted drafters."""
        import random

        config = TransformerConfig(vocab_size=32, n_positions=48, dim=16, n_layers=2, n_heads=4)
        model = DecoderLM(config, numpy_rng(seed))
        rng = random.Random(seed)
        prompts = [
            [rng.randint(1, 31) for _ in range(rng.randint(2, 10))] for _ in range(7)
        ]
        want = InferenceEngine(model, max_batch_size=4).generate_batch(
            prompts, max_new_tokens=10
        )
        draft = RetrievalSuffixDraft()
        for prompt, result in zip(prompts, want):
            draft.observe(list(prompt) + list(result.token_ids))
        engine = InferenceEngine(model, max_batch_size=4, speculative_k=5, draft_model=draft)
        got = engine.generate_batch(prompts, max_new_tokens=10)
        for prompt, a, b in zip(prompts, want, got):
            assert greedy_or_tie(model, prompt, a.token_ids, 10)
            assert greedy_or_tie(model, prompt, b.token_ids, 10)
            assert a.stop_reason == b.stop_reason
        speculative = engine.stats()["speculative"]
        assert speculative["accepted_tokens"] > 0  # the fitted drafter actually helped

    def test_arena_drains_after_speculative_run(self, trained_model):
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=4, draft_model=JunkDraft()
        )
        engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        engine.prefix_cache.clear()
        assert engine.stats()["kv_arena"]["bytes_in_use"] == 0


class TestSpeculativeStats:
    def test_stats_section_present_and_consistent(self, trained_model):
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=4, draft_model=CycleDraft()
        )
        engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        stats = engine.stats()["speculative"]
        assert stats["k"] == 4
        assert stats["draft_model"] == "cycle"
        assert stats["steps"] > 0
        assert 0 < stats["accepted_tokens"] <= stats["proposed_tokens"]
        assert 0.0 < stats["acceptance_rate"] <= 1.0
        assert 1.0 <= stats["mean_accept_length"] <= 5.0
        # The near-oracle drafter should accept nearly everything.
        assert stats["acceptance_rate"] > 0.5

    def test_stats_absent_without_speculation(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=3)
        engine.generate_batch(MIXED_PROMPTS[:2], max_new_tokens=4)
        assert "speculative" not in engine.stats()

    def test_metrics_registered(self, trained_model):
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=3, draft_model=CycleDraft()
        )
        engine.generate_batch(MIXED_PROMPTS[:3], max_new_tokens=6)
        names = engine.obs.metrics.instruments()
        assert "engine.speculative_steps" in names
        assert "engine.draft_tokens_proposed" in names
        assert "engine.draft_tokens_accepted" in names
        assert "engine.speculative_accept_length" in names

    def test_configuration_validation(self, trained_model):
        with pytest.raises(EngineError):
            InferenceEngine(trained_model, speculative_k=2)  # no draft model
        with pytest.raises(EngineError):
            InferenceEngine(trained_model, speculative_k=-1, draft_model=CycleDraft())


class TestDrafters:
    def test_protocol_runtime_checkable(self):
        assert isinstance(CycleDraft(), DraftModel)
        assert isinstance(RetrievalSuffixDraft(), DraftModel)

    def test_retrieval_suffix_longest_match_wins(self):
        draft = RetrievalSuffixDraft(match_length=4, min_match=2)
        draft.observe([1, 2, 3, 4, 5, 6])
        draft.observe([9, 3, 4, 7, 8])
        # 4-token suffix match beats the 2-token one observed later.
        assert draft.propose([0, 1, 2, 3, 4], 2) == [5, 6]
        # A 3-token suffix (9, 3, 4) outranks the first sequence's 2-token (3, 4).
        assert draft.propose([9, 9, 3, 4], 2) == [7, 8]
        # Only the 2-token suffix (3, 4) matches: the first observation wins.
        assert draft.propose([0, 0, 3, 4], 2) == [5, 6]

    def test_retrieval_suffix_no_match_returns_empty(self):
        draft = RetrievalSuffixDraft()
        draft.observe([1, 2, 3])
        assert draft.propose([7, 8, 9], 3) == []
        assert draft.propose([1], 3) == []  # shorter than min_match

    def test_retrieval_suffix_deterministic_in_observation_order(self):
        first = RetrievalSuffixDraft()
        first.observe([1, 2, 5, 5])
        first.observe([1, 2, 9, 9])
        assert first.propose([0, 1, 2], 2) == [5, 5]  # first observation wins

    def test_retrieval_suffix_validation(self):
        with pytest.raises(EngineError):
            RetrievalSuffixDraft(match_length=2, min_match=3)

    def test_ngram_draft_iterates_next_token(self, tiny_tokenizer):
        draft = build_draft_model(
            "ngram", tiny_tokenizer, ["abab abab abab", "abab abab"]
        )
        assert isinstance(draft, NgramDraft)
        context = tiny_tokenizer.encode("abab abab", allow_special=False)
        proposed = draft.propose(context, 4)
        assert len(proposed) == 4
        assert proposed == draft.propose(context, 4)  # deterministic

    def test_build_draft_model_unknown_kind(self, tiny_tokenizer):
        with pytest.raises(EngineError):
            build_draft_model("transformer", tiny_tokenizer, [])


class TestBatcherFallbacks:
    def test_budget_one_requests_take_plain_steps(self, trained_model):
        """k is capped by remaining budget; budget-1 rows never draft."""
        engine = InferenceEngine(
            trained_model, max_batch_size=3, speculative_k=4, draft_model=CycleDraft()
        )
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=1)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 1)
        assert engine.stats()["speculative"]["steps"] == 0

    def test_window_edge_caps_draft_width(self, trained_model):
        """Prompts near n_positions must not push positions past the window."""
        window = trained_model.config.n_positions
        long_prompt = ([1, 2, 3, 4] * 8)[: window - 4]
        engine = InferenceEngine(
            trained_model, max_batch_size=2, speculative_k=8, draft_model=CycleDraft()
        )
        results = engine.generate_batch([long_prompt], max_new_tokens=16)
        assert_matches_sequential(trained_model, results, [long_prompt], 16)

    def test_mixed_accept_lengths_within_batch(self, trained_model):
        """Rows accepting different draft counts roll back by different offsets."""
        engine = InferenceEngine(
            trained_model, max_batch_size=4, speculative_k=4, draft_model=RowBiasedDraft()
        )
        results = engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        assert_matches_sequential(trained_model, results, MIXED_PROMPTS, 8)

    def test_mixed_acceptance_copies_no_kv(self, trained_model):
        """Rollback is an offset: a step whose rows accept different counts
        moves ``bytes_copied`` by 0."""
        engine = InferenceEngine(
            trained_model, max_batch_size=4, speculative_k=4, draft_model=RowBiasedDraft()
        )
        batch, arena = engine.batcher.batch, engine.kv_arena
        inner, steps = batch.speculative_step, []

        def recording(drafts):
            copied = arena.bytes_copied
            emitted = inner(drafts)
            steps.append((len({len(tokens) for tokens in emitted}), arena.bytes_copied - copied))
            return emitted

        batch.speculative_step = recording
        engine.generate_batch(MIXED_PROMPTS, max_new_tokens=8)
        assert any(counts > 1 for counts, _ in steps)  # mixed acceptance happened
        assert all(copied == 0 for _, copied in steps)


@pytest.mark.faults
class TestSpeculativeChaos:
    def test_chaos_cli_replay_byte_identical_with_speculation(self, tmp_path):
        """`repro chaos --speculative-k --verify`: the acceptance criterion."""
        out = tmp_path / "chaos.jsonl"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "chaos",
                "--seed",
                "5",
                "--speculative-k",
                "4",
                "--verify",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "byte-identical" in result.stderr
        events = [json.loads(line) for line in out.read_text().splitlines()]
        summary = events[-1]
        assert summary["kind"] == "summary"
        assert summary["arena_bytes_in_use"] == 0
        assert summary["speculative_k"] == 4
        assert summary["speculative_steps"] > 0
