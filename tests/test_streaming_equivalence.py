"""Streaming / session conformance: delivery changes, content never does.

The property this suite pins down, across a grid of seeds, batch sizes
and speculative draft depths:

* the concatenation of every burst ``stream_ids`` yields is byte-identical
  to the non-streaming ``generate_batch`` result for the same prompt, and
  to the blessed :func:`~repro.nn.sampling.generate_greedy` reference;
* a keystroke session's ``extend`` — which rolls the warm KV slab forward
  and prefills only the buffer delta — produces output byte-identical to
  a cold re-prefill of the same full buffer on a fresh engine;
* the serving layer's SSE stream reassembles to exactly the payload the
  non-streaming endpoint returns.

Any divergence means streaming changed *content*, which is the one thing
it must never do.
"""

from __future__ import annotations

import pytest

from repro.engine import InferenceEngine
from repro.engine.speculative import build_draft_model
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.serving import PredictionService, SessionManager
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.rng import SeededRng
from tests.conftest import greedy_or_tie

pytestmark = pytest.mark.streaming

TRAIN_TEXTS = [
    "- name: Install SSH server\n  ansible.builtin.apt:\n    name: openssh-server\n",
    "- name: Start SSH server\n  ansible.builtin.service:\n    name: ssh\n    state: started\n",
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
    "- name: Copy the config\n  ansible.builtin.copy:\n    src: a\n    dest: b\n",
]

SPECULATIVE_KS = (0, 2, 4)
BUDGET = 12


@pytest.fixture(scope="module")
def tokenizer():
    return BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)


_NETWORKS: dict[tuple[int, int], DecoderLM] = {}


def network_for(seed: int, vocab_size: int) -> DecoderLM:
    # Keyed by vocabulary too: callers train tokenizers of different sizes,
    # and a network memoised for a smaller vocabulary cannot embed their ids.
    key = (seed, vocab_size)
    if key not in _NETWORKS:
        config = TransformerConfig(
            vocab_size=vocab_size, n_positions=160, dim=32, n_layers=2, n_heads=4
        )
        _NETWORKS[key] = DecoderLM(config, numpy_rng(seed))
    return _NETWORKS[key]


def build_engine(
    tokenizer,
    seed: int,
    *,
    speculative_k: int = 0,
    draft_kind: str = "retrieval",
    max_batch_size: int = 4,
) -> InferenceEngine:
    # A fresh draft per engine: drafts are stateful (they observe decoded
    # contexts), and sharing one across the streaming and the reference
    # engine would entangle the two runs' acceptance rates.
    draft = build_draft_model(draft_kind, tokenizer, TRAIN_TEXTS) if speculative_k else None
    return InferenceEngine(
        network_for(seed, tokenizer.vocab_size),
        tokenizer,
        max_batch_size=max_batch_size,
        default_max_new_tokens=BUDGET,
        speculative_k=speculative_k,
        draft_model=draft,
    )


def seeded_prompts(seed: int, count: int, vocab_size: int) -> list[list[int]]:
    rng = SeededRng(seed).child("stream-equiv")
    return [
        [rng.randint(1, vocab_size - 1) for _ in range(rng.randint(3, 30))]
        for _ in range(count)
    ]


def stream_all(engine: InferenceEngine, prompt: list[int]) -> list[int]:
    collected: list[int] = []
    for burst in engine.stream_ids(list(prompt), BUDGET):
        assert isinstance(burst, list) and burst, "empty burst yielded"
        collected.extend(burst)
    return collected


class TestStreamMatchesNonStreaming:
    """stream_ids concat == generate_batch, across the full grid."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("speculative_k", SPECULATIVE_KS)
    def test_stream_concat_equals_batch(self, tokenizer, seed, speculative_k):
        prompts = seeded_prompts(seed, 4, tokenizer.vocab_size)
        streaming = build_engine(tokenizer, seed, speculative_k=speculative_k)
        reference = build_engine(tokenizer, seed, speculative_k=speculative_k)
        network = network_for(seed, tokenizer.vocab_size)
        streamed = [stream_all(streaming, prompt) for prompt in prompts]
        results = reference.generate_batch([list(p) for p in prompts], BUDGET)
        for prompt, got, want in zip(prompts, streamed, results):
            # a stream decodes alone and the batch four rows at once: both
            # are greedy by the tie rule
            assert greedy_or_tie(network, list(prompt), got, BUDGET)
            assert greedy_or_tie(network, list(prompt), want.token_ids, BUDGET)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("speculative_k", SPECULATIVE_KS)
    def test_stream_concat_equals_greedy_reference(self, tokenizer, seed, speculative_k):
        # The blessed reference runs full forwards with no KV arena at all;
        # the streamed tokens must match it exactly.
        engine = build_engine(tokenizer, seed, speculative_k=speculative_k)
        network = network_for(seed, tokenizer.vocab_size)
        for prompt in seeded_prompts(seed + 10, 3, tokenizer.vocab_size):
            assert greedy_or_tie(network, list(prompt), stream_all(engine, list(prompt)), BUDGET)

    @pytest.mark.parametrize("max_batch_size", (1, 2, 4, 8))
    def test_batch_size_does_not_change_streamed_tokens(self, tokenizer, max_batch_size):
        engine = build_engine(tokenizer, 0, max_batch_size=max_batch_size)
        reference = build_engine(tokenizer, 0, max_batch_size=8)
        for prompt in seeded_prompts(5, 3, tokenizer.vocab_size):
            want = reference.generate_batch([list(prompt)], BUDGET)[0]
            assert stream_all(engine, list(prompt)) == list(want.token_ids)

    def test_warm_prefix_cache_stream_is_identical(self, tokenizer):
        # Streaming the same prompt twice: the second run admits through a
        # prefix-cache hit, which must not change a single token.
        engine = build_engine(tokenizer, 0)
        prompt = seeded_prompts(7, 1, tokenizer.vocab_size)[0]
        assert stream_all(engine, list(prompt)) == stream_all(engine, list(prompt))


class TestSessionExtendMatchesColdPrefill:
    """Rolling a warm slab forward == re-prefilling from scratch."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("speculative_k", SPECULATIVE_KS)
    def test_extend_equals_cold_create(self, tokenizer, seed, speculative_k):
        warm_engine = build_engine(tokenizer, seed, speculative_k=speculative_k)
        cold_engine = build_engine(tokenizer, seed, speculative_k=speculative_k)
        warm = SessionManager(warm_engine)
        cold = SessionManager(cold_engine)
        buffer = TRAIN_TEXTS[seed % len(TRAIN_TEXTS)]
        created = warm.create(buffer, BUDGET)
        grown = buffer + created["completion"] + "\n- name: Restart the service\n"
        extended = warm.extend(created["session_id"], grown, BUDGET)
        fresh = cold.create(grown, BUDGET)
        assert extended["completion"] == fresh["completion"]
        assert extended["stop_reason"] == fresh["stop_reason"]
        # and the warm path genuinely reused the session's cached context
        assert extended["reused_tokens"] > 0
        assert extended["prefilled"] < fresh["prefilled"]

    @pytest.mark.parametrize("seed", range(3))
    def test_speculative_extend_equals_cold_and_plain_greedy(self, tokenizer, seed):
        # A session is a batcher row, so it speculates when the engine
        # does: warm + drafted == cold + drafted == plain greedy, and the
        # verify forward really ran on the session's rows.
        def drafting_engine():
            # the n-gram drafter always has an opinion (the grid's retrieval
            # drafter rarely matches a random-weight model's output)
            return build_engine(tokenizer, seed, speculative_k=4, draft_kind="ngram")

        warm_engine = drafting_engine()
        warm = SessionManager(warm_engine)
        buffer = TRAIN_TEXTS[seed % len(TRAIN_TEXTS)]
        created = warm.create(buffer, BUDGET)
        grown = buffer + created["completion"] + "\n- name: Restart the service\n"
        extended = warm.extend(created["session_id"], grown, BUDGET)
        fresh = SessionManager(drafting_engine()).create(grown, BUDGET)
        network = network_for(seed, tokenizer.vocab_size)
        planned, effective = plan_prompt(network.config.n_positions, tokenizer.encode(grown), BUDGET)
        want = generate_greedy(network, planned, effective)
        assert extended["completion"] == fresh["completion"] == tokenizer.decode(want.token_ids)
        assert extended["stop_reason"] == fresh["stop_reason"] == want.stop_reason
        assert extended["reused_tokens"] > 0
        speculative = warm_engine.stats()["speculative"]
        assert speculative["steps"] > 0
        assert speculative["accepted_tokens"] <= speculative["proposed_tokens"]

    @pytest.mark.parametrize("extends", (2, 4))
    def test_chained_extends_stay_identical(self, tokenizer, extends):
        warm_engine = build_engine(tokenizer, 1)
        warm = SessionManager(warm_engine)
        buffer = TRAIN_TEXTS[0]
        payload = warm.create(buffer, BUDGET)
        session_id = payload["session_id"]
        for round_index in range(extends):
            buffer = buffer + payload["completion"] + f"\n- name: Step {round_index}\n"
            payload = warm.extend(session_id, buffer, BUDGET)
            cold_engine = build_engine(tokenizer, 1)
            fresh = SessionManager(cold_engine).create(buffer, BUDGET)
            assert payload["completion"] == fresh["completion"]

    def test_divergent_buffer_truncates_and_still_matches(self, tokenizer):
        # The user edited *earlier* text (not just appended): the common
        # prefix shrinks, the slab truncates, and output must still match
        # a cold prefill of the edited buffer.
        warm_engine = build_engine(tokenizer, 2)
        warm = SessionManager(warm_engine)
        created = warm.create(TRAIN_TEXTS[0], BUDGET)
        edited = TRAIN_TEXTS[0].replace("openssh-server", "httpd") + "- name: Next task\n"
        extended = warm.extend(created["session_id"], edited, BUDGET)
        fresh = SessionManager(build_engine(tokenizer, 2)).create(edited, BUDGET)
        assert extended["completion"] == fresh["completion"]


class TestServiceStreamMatchesPredict:
    """The SSE surface reassembles to the non-streaming payload."""

    @pytest.mark.parametrize("seed", range(2))
    def test_stream_text_concat_equals_predict(self, tokenizer, seed):
        stream_service = PredictionService(build_engine(tokenizer, seed), cache_capacity=1)
        plain_engine = build_engine(tokenizer, seed)
        plain_service = PredictionService(plain_engine, cache_capacity=1)
        prompt = TRAIN_TEXTS[seed]
        want = plain_service.predict(prompt, BUDGET)
        events = list(stream_service.predict_stream(prompt, BUDGET))
        text = "".join(data["text"] for event, data in events if event == "token")
        done = [data for event, data in events if event == "done"][0]
        assert text == want["completion"]
        assert done["completion"] == want["completion"]
        assert done["outcome"] == "completed"

    def test_streamed_token_ids_concat_equals_engine_tokens(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        service = PredictionService(engine, cache_capacity=1)
        reference = build_engine(tokenizer, 0)
        prompt = TRAIN_TEXTS[1]
        ids: list[int] = []
        for event, data in service.predict_stream(prompt, BUDGET):
            if event == "token":
                ids.extend(data["token_ids"])
        want = reference.generate_batch([tokenizer.encode(prompt)], BUDGET)[0]
        assert ids == list(want.token_ids)
