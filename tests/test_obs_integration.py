"""Integration tests for repro.obs wired through engine, serving and model.

Three properties matter end-to-end:

1. a traced engine run emits the expected span taxonomy — every request
   gets an ``engine.request`` root whose queue-wait/prefill/decode children
   are parented to it and contained within it in time;
2. the serving layer's ``/v1/metrics`` endpoint reflects real traffic
   (request counters, latency histograms, prefix-cache stats);
3. tracing is *observation only*: with a tracer attached, batched decode
   stays token-identical to the sequential greedy baseline (checked
   property-style over randomized prompt sets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import InferenceEngine
from repro.model.lm import WisdomModel
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.obs import Observability, Tracer
from repro.serving.client import PredictionClient
from repro.serving.service import PredictionService, RestServer
from repro.utils.rng import SeededRng


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


PROMPTS = [
    [1, 2, 3, 4, 1, 2],
    [2, 3, 4],
    [1, 2],
    [3, 4, 1, 2, 3, 4, 1],
]


class TestEngineTracing:
    def test_request_span_taxonomy(self, trained_model):
        obs = Observability.with_tracing(capacity=1024)
        engine = InferenceEngine(trained_model, max_batch_size=3, obs=obs)
        results = engine.generate_batch(PROMPTS, max_new_tokens=6)
        assert len(results) == len(PROMPTS)

        roots = obs.tracer.spans("engine.request")
        assert len(roots) == len(PROMPTS)
        for root in roots:
            children = [
                span
                for span in obs.tracer.spans()
                if span.parent_id == root.span_id
            ]
            names = {span.name for span in children}
            assert {"engine.queue_wait", "engine.prefill", "engine.decode"} <= names
            # children are contained in the parent's interval
            for child in children:
                assert child.start_s >= root.start_s - 1e-9
                assert child.end_s <= root.end_s + 1e-9
            assert root.attrs["generated_tokens"] == 6
            assert "request_id" in root.attrs
        # the batcher's per-step spans come out too
        assert len(obs.tracer.spans("engine.decode_step")) >= 1

    def test_request_metrics_reflect_traffic(self, trained_model):
        obs = Observability()  # metrics on, tracing off (default posture)
        engine = InferenceEngine(trained_model, max_batch_size=4, obs=obs)
        engine.generate_batch(PROMPTS, max_new_tokens=5)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["engine.requests"] == len(PROMPTS)
        assert snapshot["counters"]["engine.generated_tokens"] == 5 * len(PROMPTS)
        for name in ("engine.queue_wait_s", "engine.prefill_s", "engine.decode_s"):
            assert snapshot["histograms"][name]["count"] == len(PROMPTS)
        assert snapshot["histograms"]["engine.decode_step_s"]["count"] >= 1
        assert snapshot["histograms"]["engine.batch_occupancy"]["max"] <= 4
        # tracing off recorded nothing
        assert len(obs.tracer.spans()) == 0

    def test_prefix_cache_counters(self, trained_model):
        obs = Observability()
        engine = InferenceEngine(trained_model, max_batch_size=2, obs=obs)
        prompt = [1, 2, 3, 4, 1, 2, 3, 4]
        engine.generate_batch([prompt], max_new_tokens=4)
        engine.generate_batch([prompt], max_new_tokens=4)
        # hits and misses are the cache's own (one store, read through
        # stats()); the registry counts the tokens reuse saved
        prefix_cache = engine.stats()["prefix_cache"]
        assert prefix_cache["misses"] >= 1
        assert prefix_cache["hits"] >= 1
        assert obs.metrics.snapshot()["counters"]["engine.prefix_tokens_reused"] > 0

    def test_attach_tracer_after_construction(self, trained_model):
        engine = InferenceEngine(trained_model, max_batch_size=2)
        engine.generate_batch(PROMPTS[:2], max_new_tokens=3)
        assert len(engine.obs.tracer.spans()) == 0
        tracer = Tracer(capacity=256)
        engine.attach_tracer(tracer)
        engine.generate_batch(PROMPTS[:2], max_new_tokens=3)
        assert len(tracer.spans("engine.request")) == 2


class TestServingMetricsEndpoint:
    def test_metrics_round_trip(self, tiny_tokenizer, tiny_network):
        model = WisdomModel("test", tiny_tokenizer, tiny_network)
        obs = Observability.with_tracing(capacity=512)
        service = PredictionService(InferenceEngine.from_model(model, max_batch_size=4, obs=obs))
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            client.predict("- name: install nginx\n", max_new_tokens=4)
            client.predict_batch(["- name: a\n", "- name: b\n"], max_new_tokens=4)
            payload = client.metrics()

        counters = payload["metrics"]["counters"]
        assert counters["serving.requests"] == 3
        assert counters["serving.batch_requests"] == 1
        histograms = payload["metrics"]["histograms"]
        assert histograms["serving.completions_s"]["count"] == 1
        assert histograms["serving.batch_completions_s"]["count"] == 1
        # engine instrumentation shares the same registry (with an engine
        # attached, single and batch predictions both decode through it)
        assert counters["engine.requests"] == 3
        assert histograms["engine.queue_wait_s"]["count"] == 3
        assert histograms["engine.prefill_s"]["count"] == 3
        assert histograms["engine.decode_s"]["count"] >= 1
        # prefix-cache hit rate is surfaced via the engine section
        assert "hit_rate" in payload["engine"]["prefix_cache"]
        assert payload["tracing"]["enabled"] is True
        assert payload["tracing"]["spans_recorded"] > 0

    def test_stats_gains_tracing_and_inflight(self, tiny_tokenizer, tiny_network):
        model = WisdomModel("test", tiny_tokenizer, tiny_network)
        service = PredictionService(InferenceEngine.from_model(model))
        service.predict("- name: install nginx\n", max_new_tokens=3)
        stats = service.stats()
        assert stats["inflight"] == 0
        assert stats["tracing"] == {
            "enabled": False,
            "spans_buffered": 0,
            "spans_recorded": 0,
        }

    def test_serving_spans_wrap_engine_spans(self, tiny_tokenizer, tiny_network):
        model = WisdomModel("test", tiny_tokenizer, tiny_network)
        obs = Observability.with_tracing(capacity=512)
        service = PredictionService(InferenceEngine.from_model(model, max_batch_size=2, obs=obs))
        service.predict_batch(["- name: install nginx\n"], max_new_tokens=3)
        tracer = service.obs.tracer
        assert len(tracer.spans("serving.predict_batch")) == 1
        assert len(tracer.spans("engine.request")) == 1


class TestTracedEquivalence:
    """Property-style: tracing must not perturb generation.

    Randomized prompt sets (seeded, so failures replay) decoded through a
    fully traced engine must match token-for-token what sequential greedy
    decoding produces on the bare network.
    """

    def test_randomized_prompt_sets_match_sequential(self, trained_model):
        rng = SeededRng(1234).child("obs-equivalence")
        vocab = trained_model.config.vocab_size
        for round_index in range(5):
            batch_size = rng.randint(2, 6)
            prompts = [
                [rng.randint(1, vocab - 1) for _ in range(rng.randint(2, 8))]
                for _ in range(batch_size)
            ]
            budget = rng.randint(3, 8)
            obs = Observability.with_tracing(capacity=2048)
            engine = InferenceEngine(trained_model, max_batch_size=3, obs=obs)
            results = engine.generate_batch(prompts, max_new_tokens=budget)
            for prompt, got in zip(prompts, results):
                want = generate_greedy(trained_model, prompt, max_new_tokens=budget)
                assert got.token_ids == want.token_ids, (
                    f"round {round_index}, prompt {prompt}: "
                    f"{got.token_ids} != {want.token_ids}"
                )
                assert got.stop_reason == want.stop_reason
            # tracing saw every request
            assert len(obs.tracer.spans("engine.request")) == batch_size

    def test_traced_prefix_cache_reuse_still_identical(self, trained_model):
        rng = SeededRng(99).child("obs-prefix")
        prefix = [1, 2, 3, 4, 1, 2, 3, 4]
        obs = Observability.with_tracing(capacity=2048)
        engine = InferenceEngine(trained_model, max_batch_size=4, obs=obs)
        for _ in range(3):
            prompts = [
                prefix + [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
                for _ in range(3)
            ]
            results = engine.generate_batch(prompts, max_new_tokens=5)
            for prompt, got in zip(prompts, results):
                want = generate_greedy(trained_model, prompt, max_new_tokens=5)
                assert got.token_ids == want.token_ids
        assert engine.stats()["prefix_cache"]["hits"] >= 1
