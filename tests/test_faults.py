"""Chaos tests: deadlines, cancellation, shedding and fault injection.

The load-bearing property: under *any* seeded fault schedule, every
admitted request terminates in exactly one of {completed, cancelled,
deadline_exceeded, shed}, and all KV accounting returns to zero — no
leaked slabs, no poisoned caches, no wedged queues.  Everything runs on
the fake clock, so timing assertions are exact and schedules replay
byte-identically.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.engine import (
    ContinuousBatcher,
    GenerationRequest,
    InferenceEngine,
    PrefixCache,
)
from repro.engine import batcher as batcher_module
from repro.engine.chaos import run_engine_chaos
from repro.errors import (
    DeadlineExceededError,
    InjectedFault,
    ServiceOverloadedError,
    ServingError,
)
from repro.faults import FakeClock, FaultInjector, KNOWN_SEAMS, fire, render_jsonl, shield, use
from repro.faults import clock as faults_clock
from repro.nn.kv_arena import KVArena
from repro.nn.optim import Adam
from repro.nn.parameter import numpy_rng
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.nn.transformer import DecoderLM, TransformerConfig
from repro.serving.client import PredictionClient
from repro.serving.service import SHED_RETRY_AFTER_S, PredictionService, RestServer
from tests.conftest import GenerationGate, drain, greedy_or_tie

pytestmark = pytest.mark.faults

TERMINAL_OUTCOMES = {"completed", "cancelled", "deadline_exceeded", "shed"}

#: The three engine run shapes: ``repro chaos`` flags -> ``run_engine_chaos`` keywords.
ENGINE_SHAPES = {"": {}, "--stream": {"stream": True}, "--speculative-k 4": {"speculative_k": 4}}


@pytest.fixture(scope="module")
def chaos_model():
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


def _request(model, request_id, prompt, max_new_tokens=8, deadline_s=None):
    planned, effective = plan_prompt(model.config.n_positions, prompt, max_new_tokens)
    return GenerationRequest(
        request_id=request_id,
        prompt_ids=planned,
        max_new_tokens=max_new_tokens,
        effective_budget=effective,
        deadline_s=deadline_s,
    )


# -- clock --------------------------------------------------------------------


class TestFakeClock:
    def test_advance_and_sleep_move_time(self):
        fake = FakeClock(start=5.0)
        assert fake.now() == 5.0
        fake.advance(0.5)
        fake.sleep(0.25)
        assert fake.now() == 5.75

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_use_installs_and_restores(self):
        fake = FakeClock(start=100.0)
        before = faults_clock.now()
        with use(fake):
            assert faults_clock.now() == 100.0
            faults_clock.sleep(1.0)  # module-level sleep routes to the fake
            assert faults_clock.now() == 101.0
        assert faults_clock.now() != 101.0
        assert faults_clock.now() >= before


# -- injector -----------------------------------------------------------------


class TestFaultInjector:
    def test_fire_is_noop_without_injector(self):
        fire("kv_arena.acquire")  # must not raise

    def test_at_calls_fires_exactly_there(self):
        injector = FaultInjector(seed=0).on("tokenizer.encode", at_calls=[2])
        with injector:
            fire("tokenizer.encode")
            with pytest.raises(InjectedFault) as exc_info:
                fire("tokenizer.encode")
            fire("tokenizer.encode")
        assert exc_info.value.seam == "tokenizer.encode"
        assert exc_info.value.call == 2

    def test_probability_schedule_replays(self):
        def run(seed):
            # Fake clock: event timestamps must replay too, not just the schedule.
            injector = FaultInjector(seed=seed).on("engine.decode_step", probability=0.3)
            with use(FakeClock()), injector:
                for _ in range(50):
                    try:
                        fire("engine.decode_step")
                    except InjectedFault:
                        pass
            return render_jsonl(injector.events())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_max_fires_caps_schedule(self):
        injector = FaultInjector(seed=0).on("checkpoint.read", probability=1.0, max_fires=2)
        fired = 0
        with injector:
            for _ in range(10):
                try:
                    fire("checkpoint.read")
                except InjectedFault:
                    fired += 1
        assert fired == 2

    def test_shield_suppresses_injection(self):
        injector = FaultInjector(seed=0).on("kv_arena.acquire", probability=1.0)
        with injector:
            with shield():
                fire("kv_arena.acquire")  # suppressed, not even counted
            with pytest.raises(InjectedFault) as exc_info:
                fire("kv_arena.acquire")
        assert exc_info.value.call == 1

    def test_delay_fault_sleeps_on_shared_clock(self):
        fake = FakeClock()
        injector = FaultInjector(seed=0).on(
            "engine.decode_step", at_calls=[1], error=None, delay_s=0.75
        )
        with use(fake), injector:
            fire("engine.decode_step")
        assert fake.now() == 0.75
        assert injector.events()[0]["action"] == "delay"

    def test_event_log_is_canonical_jsonl(self):
        injector = FaultInjector(seed=0).on("tokenizer.encode", at_calls=[1])
        with injector:
            with pytest.raises(InjectedFault):
                fire("tokenizer.encode")
        lines = render_jsonl(injector.events()).splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["seam"] == "tokenizer.encode" and event["action"] == "raise"
        assert lines[0] == json.dumps(event, sort_keys=True)

    def test_known_seams_are_instrumented(self):
        # Every advertised seam must actually fire from its call site.
        assert set(KNOWN_SEAMS) == {
            "kv_arena.acquire",
            "engine.decode_step",
            "tokenizer.encode",
            "checkpoint.read",
            "fleet.spawn",
            "fleet.heartbeat",
            "fleet.dispatch",
        }

    def test_kv_arena_seam_fires(self):
        arena = KVArena()
        injector = FaultInjector(seed=0).on("kv_arena.acquire", at_calls=[1])
        with injector:
            with pytest.raises(InjectedFault):
                arena.acquire(1, 4, 4, 8)
        assert arena.stats()["bytes_in_use"] == 0

    def test_tokenizer_seam_fires(self, tiny_tokenizer):
        injector = FaultInjector(seed=0).on("tokenizer.encode", at_calls=[1])
        with injector:
            with pytest.raises(InjectedFault):
                tiny_tokenizer.encode("- name: Install nginx")

    def test_checkpoint_seam_fires(self, tmp_path):
        from repro.model.checkpoints import load_checkpoint

        injector = FaultInjector(seed=0).on("checkpoint.read", at_calls=[1])
        with injector:
            with pytest.raises(InjectedFault):
                load_checkpoint(tmp_path / "nope")


# -- engine chaos -------------------------------------------------------------


def _assert_storm_upheld(result: dict, requests: int) -> dict:
    """The load-bearing property, read off a ``run_engine_chaos`` result —
    the storm ``repro chaos`` replays, so a seed failing here reproduces
    from the command line.  Returns the engine stats for further checks."""
    assert result["violations"] == []
    outcomes = [event["outcome"] for event in result["events"] if event["kind"] == "request"]
    assert len(outcomes) == requests
    assert all(outcome in TERMINAL_OUTCOMES for outcome in outcomes), outcomes
    stats = result["stats"]
    assert stats["queue_depth"] == 0 and stats["active_requests"] == 0
    # Slot accounting returns to zero: with the batch drained and the
    # prefix cache cleared, every KV slab went back to the arena.
    assert stats["prefix_cache"]["entries"] == 0
    assert stats["kv_arena"]["bytes_in_use"] == 0
    accounted = (
        stats["completed_requests"]
        + stats["cancelled_requests"]
        + stats["deadline_expired_requests"]
        + stats["shed_requests"]
    )
    assert accounted == requests
    return stats


class TestEngineChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_request_terminates_and_nothing_leaks(self, seed):
        _assert_storm_upheld(run_engine_chaos(seed=seed, requests=10), 10)

    @pytest.mark.speculative
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_speculation_terminates_and_leaks_nothing(self, seed):
        """The chaos property is speculation-agnostic: same storm, draft on."""
        result = run_engine_chaos(seed=seed, requests=10, speculative_k=4)
        spec = _assert_storm_upheld(result, 10)["speculative"]
        assert spec["k"] == 4
        assert spec["steps"] > 0
        assert spec["accepted_tokens"] <= spec["proposed_tokens"]

    def test_an_unreleased_kv_cache_fails_the_run_through_the_audit(self, monkeypatch):
        """The harness compares no byte count itself: a claim nobody
        releases reaches ``violations`` as the audit's zero-leak law."""

        class LeakyArena(KVArena):
            def __init__(self):
                super().__init__()
                with shield():  # keep the seam's call count, and so the schedule
                    self.leaked = self.acquire(1, 4, 4, 8)

        monkeypatch.setattr("repro.engine.chaos.KVArena", LeakyArena)
        result = run_engine_chaos(seed=0, requests=4)
        assert len(result["violations"]) == 1
        assert "engine.kv_arena.bytes_in_use == 0" in result["violations"][0]
        assert result["events"][-1]["arena_bytes_in_use"] > 0  # and the log still says so

    def test_cancel_retires_mid_decode_row(self, chaos_model):
        batcher = ContinuousBatcher(chaos_model, max_batch_size=4)
        victim = _request(chaos_model, 0, [1, 2, 3, 4], max_new_tokens=8)
        survivor = _request(chaos_model, 1, [2, 3, 4, 1], max_new_tokens=8)
        batcher.submit(victim)
        batcher.submit(survivor)
        batcher.step()  # both admitted, one decode step done
        assert batcher.active_size == 2
        assert victim.cancel()
        batcher.step()
        assert victim.outcome == "cancelled"
        assert victim.result.stop_reason == "cancelled"  # partial result, no raise
        assert batcher.active_size == 1
        drain(batcher)
        assert survivor.outcome == "completed"
        want = generate_greedy(chaos_model, [2, 3, 4, 1], 8)
        assert survivor.result.token_ids == want.token_ids

    def test_cancel_after_finish_is_noop(self, chaos_model):
        batcher = ContinuousBatcher(chaos_model, max_batch_size=2)
        request = _request(chaos_model, 0, [1, 2, 3], max_new_tokens=2)
        batcher.submit(request)
        drain(batcher)
        assert request.outcome == "completed"
        assert request.cancel() is False
        assert request.outcome == "completed"

    def test_slow_decode_blows_deadline(self, chaos_model):
        fake = FakeClock()
        injector = FaultInjector(seed=0).on(
            "engine.decode_step", at_calls=[2], error=None, delay_s=1.0
        )
        with use(fake), injector:
            batcher = ContinuousBatcher(chaos_model, max_batch_size=2)
            request = _request(chaos_model, 0, [1, 2, 3, 4], max_new_tokens=8, deadline_s=0.5)
            batcher.submit(request)
            drain(batcher)
        assert request.outcome == "deadline_exceeded"
        assert 0 < len(request.generated) < 8  # partial generation survives

    def test_queued_request_expires_without_prefill(self, chaos_model):
        fake = FakeClock()
        with use(fake):
            batcher = ContinuousBatcher(chaos_model, max_batch_size=1)
            # Occupy the only slot so the second request has to wait.
            blocker = _request(chaos_model, 0, [1, 2, 3, 4], max_new_tokens=8)
            waiter = _request(chaos_model, 1, [2, 3, 4, 1], max_new_tokens=8, deadline_s=0.2)
            batcher.submit(blocker)
            batcher.submit(waiter)
            batcher.step()
            fake.advance(0.5)  # waiter's deadline passes while queued
            drain(batcher)
        assert blocker.outcome == "completed"
        assert waiter.outcome == "deadline_exceeded"
        assert waiter.prefill_started_at is None
        assert waiter.timings()["prefill_s"] == 0.0 and waiter.timings()["decode_s"] == 0.0

    def test_alloc_fault_sheds_only_chargeable_request(self, chaos_model):
        arena = KVArena()
        injector = FaultInjector(seed=0).on("kv_arena.acquire", at_calls=[1])
        with injector:
            batcher = ContinuousBatcher(chaos_model, max_batch_size=2, arena=arena)
            unlucky = _request(chaos_model, 0, [1, 2, 3, 4], max_new_tokens=4)
            lucky = _request(chaos_model, 1, [2, 3, 4, 1], max_new_tokens=4)
            batcher.submit(unlucky)
            batcher.submit(lucky)
            drain(batcher)
        assert unlucky.outcome == "shed"
        assert unlucky.result.token_ids == []
        assert lucky.outcome == "completed"
        assert arena.stats()["bytes_in_use"] == 0
        assert batcher.stats()["shed_requests"] == 1

    def test_a_prefill_that_raises_drops_its_row_and_an_empty_batch_closes(
        self, chaos_model, monkeypatch
    ):
        """The request is prefilled in its own slot row; a prefill that raises
        drops that half-open row.  Beside a decoding row the batch stays
        open and the row decodes on; alone, the batch closes and its slabs
        go back to the arena."""
        arena = KVArena()
        batcher = ContinuousBatcher(chaos_model, max_batch_size=2, arena=arena)
        prefill = batcher_module.prefill_single

        def raising(model, prompt_ids, caches):
            prefill(model, prompt_ids, caches)  # writes the row, then fails
            raise InjectedFault("prefill")

        survivor = _request(chaos_model, 0, [2, 3, 4, 1], max_new_tokens=6)
        batcher.submit(survivor)
        batcher.step()
        monkeypatch.setattr(batcher_module, "prefill_single", raising)
        beside = _request(chaos_model, 1, [1, 2, 3, 4], max_new_tokens=6)
        batcher.submit(beside)
        batcher.step()
        assert beside.outcome == "shed"
        assert batcher.active_size == 1 and batcher.batch.caches[0].lengths == [6]
        monkeypatch.setattr(batcher_module, "prefill_single", prefill)
        drain(batcher)
        assert survivor.result.token_ids == generate_greedy(chaos_model, [2, 3, 4, 1], 6).token_ids
        monkeypatch.setattr(batcher_module, "prefill_single", raising)
        alone = _request(chaos_model, 2, [1, 2, 3, 4], max_new_tokens=6)
        batcher.submit(alone)
        drain(batcher)
        assert alone.outcome == "shed"
        assert batcher.batch.caches == []
        assert arena.stats()["bytes_in_use"] == 0
        assert batcher.stats()["shed_requests"] == 2

    def test_decode_fault_is_transient(self, chaos_model):
        injector = FaultInjector(seed=0).on("engine.decode_step", at_calls=[2, 3])
        with injector:
            batcher = ContinuousBatcher(chaos_model, max_batch_size=2)
            request = _request(chaos_model, 0, [1, 2, 3, 4], max_new_tokens=6)
            batcher.submit(request)
            drain(batcher)
        assert request.outcome == "completed"
        assert batcher.stats()["decode_faults"] == 2
        want = generate_greedy(chaos_model, [1, 2, 3, 4], 6)
        assert request.result.token_ids == want.token_ids  # retries don't skew tokens


class TestPrefixCacheInvalidation:
    def test_abnormal_finish_invalidates_inserted_prefix(self, chaos_model):
        """A failed request's K/V never seeds later requests: nothing that
        finished abnormally is inserted."""
        fake = FakeClock()
        prefix_cache = PrefixCache(8)
        prompt = [1, 2, 3, 4, 1, 2]
        injector = FaultInjector(seed=0).on(
            "engine.decode_step", at_calls=[2], error=None, delay_s=1.0
        )
        with use(fake), injector:
            batcher = ContinuousBatcher(chaos_model, max_batch_size=2, prefix_cache=prefix_cache)
            doomed = _request(chaos_model, 0, prompt, max_new_tokens=8, deadline_s=0.5)
            batcher.submit(doomed)
            drain(batcher)
            assert doomed.outcome == "deadline_exceeded"
            # Inserts happen at a normal retirement only...
            assert len(prefix_cache) == 0 and prefix_cache.stats()["bytes_held"] == 0
            # ...so an identical prompt misses instead of reusing suspect K/V.
            retry = _request(chaos_model, 1, prompt, max_new_tokens=8)
            batcher.submit(retry)
            drain(batcher)
        assert retry.outcome == "completed"
        assert retry.prefix_reused == 0
        assert prefix_cache.stats()["misses"] >= 1
        want = generate_greedy(chaos_model, prompt, 8)
        assert retry.result.token_ids == want.token_ids

    def test_completed_requests_still_populate_prefix_cache(self, chaos_model):
        prefix_cache = PrefixCache(8)
        batcher = ContinuousBatcher(chaos_model, max_batch_size=2, prefix_cache=prefix_cache)
        first = _request(chaos_model, 0, [1, 2, 3, 4, 1, 2], max_new_tokens=4)
        batcher.submit(first)
        drain(batcher)
        assert len(prefix_cache) == 1
        again = _request(chaos_model, 1, [1, 2, 3, 4, 1, 2], max_new_tokens=4)
        batcher.submit(again)
        drain(batcher)
        assert again.prefix_reused > 0

    def test_fault_opening_the_batch_sheds_only_that_request(self, chaos_model):
        """A request that finds the batch empty opens it, one slot slab per
        layer; a fault on the second layer's acquire sheds the request
        before the store walk, frees the first slab and leaves the store
        intact."""
        arena = KVArena()
        prefix_cache = PrefixCache(8)
        prompt = [1, 2, 3, 4, 1, 2]
        batcher = ContinuousBatcher(
            chaos_model, max_batch_size=2, prefix_cache=prefix_cache, arena=arena
        )
        batcher.submit(_request(chaos_model, 0, prompt, max_new_tokens=4))
        drain(batcher)
        held = arena.stats()["bytes_in_use"]  # the store's segments
        assert held == prefix_cache.stats()["bytes_held"] > 0
        _, path = prefix_cache.lookup(prompt + [3])
        stored = [cache for node, used in path if used for cache in node.caches]
        inserted = [[array.copy() for array in cache.view()] for cache in stored]
        hits = prefix_cache.stats()["hits"]
        # Acquire 1 is layer 0's slot slab, acquire 2 layer 1's.
        with FaultInjector(seed=0).on("kv_arena.acquire", at_calls=[2]) as injector:
            doomed = _request(chaos_model, 1, prompt, max_new_tokens=4)
            batcher.submit(doomed)
            drain(batcher)
        assert [event["call"] for event in injector.events()] == [2]
        assert doomed.outcome == "shed"
        assert doomed.prefix_reused == 0  # shed before the store walk: no reuse booked
        assert prefix_cache.stats()["hits"] == hits
        assert batcher.stats()["prefix_tokens_reused"] == 0
        assert batcher.stats()["shed_requests"] == 1
        assert arena.stats()["bytes_in_use"] == held
        assert arena.stats()["slabs_dropped_live"] == 0  # the first slab was released
        assert batcher.batch.caches == []  # the batch stayed closed
        for cache, (keys, values) in zip(stored, inserted):
            np.testing.assert_array_equal(cache.view()[0], keys)
            np.testing.assert_array_equal(cache.view()[1], values)
        retry = _request(chaos_model, 2, prompt, max_new_tokens=4)
        batcher.submit(retry)
        drain(batcher)
        assert retry.outcome == "completed"
        assert retry.prefix_reused == len(prompt) - 1
        assert greedy_or_tie(chaos_model, prompt, retry.result.token_ids, 4)
        assert arena.stats()["bytes_in_use"] == held
        assert batcher.stats()["shed_requests"] == 1

    def test_abort_all_clears_the_prefix_cache_under_the_engine_lock(self, chaos_model):
        engine = InferenceEngine(chaos_model, prefix_cache_capacity=8, max_batch_size=2)
        engine.generate_batch([[1, 2, 3, 4, 1, 2], [2, 3, 4, 1]], max_new_tokens=4)
        assert len(engine.prefix_cache) == 2
        clear = engine.prefix_cache.clear
        held_during_clear = []

        def clear_and_look():
            held_during_clear.append(engine._lock.locked())
            clear()

        engine.prefix_cache.clear = clear_and_look
        engine.abort_all()
        assert held_during_clear == [True]
        assert len(engine.prefix_cache) == 0
        assert engine.kv_arena.stats()["bytes_in_use"] == 0


# -- serving under faults -----------------------------------------------------


class _FallbackCompleter:
    name = "fallback"

    def complete(self, prompt, max_new_tokens=96):
        return "fallback: ok"


def _saturated_service(engine, **kwargs):
    """A service whose only admission slot a parked generation holds."""
    gate = GenerationGate(engine)
    service = PredictionService(engine, max_queue_depth=1, **kwargs)
    thread = threading.Thread(target=service.predict, args=("occupy the slot",))
    thread.start()
    assert gate.entered.wait(timeout=10)
    return service, gate, thread


class TestServingBackpressure:
    def test_saturation_degrades_to_fallback(self, make_engine):
        service, gate, thread = _saturated_service(
            make_engine(), fallback=_FallbackCompleter()
        )
        try:
            payload = service.predict("another prompt")
            assert payload["degraded"] is True
            assert payload["completion"] == "fallback: ok"
            # Degraded output is never cached: a later (unsaturated) call
            # must regenerate, not replay the fallback's answer.
            assert service.cache.get("another prompt") is None
            assert service.stats()["degraded_requests"] == 1
        finally:
            gate.release.set()
            thread.join(timeout=10)

    def test_saturation_sheds_typed_503_without_fallback(self, make_engine):
        service, gate, thread = _saturated_service(make_engine())
        try:
            with pytest.raises(ServiceOverloadedError) as exc_info:
                service.predict("another prompt")
            assert exc_info.value.retry_after_s == SHED_RETRY_AFTER_S
            assert service.stats()["shed_requests"] == 1
            assert service.obs.metrics.snapshot()["counters"]["serving.shed"] == 1
        finally:
            gate.release.set()
            thread.join(timeout=10)

    def test_cache_hits_served_even_when_saturated(self, make_engine):
        service, gate, thread = _saturated_service(make_engine())
        try:
            service.cache.put("warm prompt", "warm answer")
            payload = service.predict("warm prompt")
            assert payload["cached"] is True and payload["completion"] == "warm answer"
        finally:
            gate.release.set()
            thread.join(timeout=10)

    def test_engine_shed_degrades_and_counts(self, tiny_tokenizer, tiny_network):
        engine = InferenceEngine(tiny_network, tiny_tokenizer, max_batch_size=2)
        service = PredictionService(engine, fallback=_FallbackCompleter())
        prompt = "- name: Install nginx"
        injector = FaultInjector(seed=0).on("kv_arena.acquire", at_calls=[1])
        with injector:
            payload = service.predict(prompt, max_new_tokens=4)
        assert payload["degraded"] is True
        assert payload["completion"] == "fallback: ok"
        assert service.cache.get(prompt) is None
        counters = service.metrics()["metrics"]["counters"]
        assert counters["serving.degraded"] == 1
        assert counters["engine.requests_shed"] == 1
        assert engine.kv_arena.stats()["bytes_in_use"] == 0
        # With the fault gone the same prompt completes and is cached.
        payload = service.predict(prompt, max_new_tokens=4)
        assert "degraded" not in payload
        assert service.cache.get(prompt) is not None

    def test_deadline_maps_to_typed_error_and_skips_cache(self, tiny_tokenizer, tiny_network):
        engine = InferenceEngine(tiny_network, tiny_tokenizer, max_batch_size=2)
        service = PredictionService(engine)
        with pytest.raises(DeadlineExceededError):
            service.predict("- name: Install nginx", max_new_tokens=4, deadline_s=1e-9)
        assert service.stats()["deadline_exceeded_requests"] == 1
        assert service.cache.get("- name: Install nginx") is None
        assert engine.kv_arena.stats()["bytes_in_use"] == 0


class TestServingHttpFaults:
    def test_503_shed_with_retry_after_header_and_metrics(self, make_engine):
        service, gate, thread = _saturated_service(make_engine())
        server = RestServer(service)
        try:
            with server:
                import urllib.error
                import urllib.request

                body = json.dumps({"prompt": "another"}).encode()
                request = urllib.request.Request(
                    server.url + "/v1/completions", data=body, method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(request, timeout=10)
                assert exc_info.value.code == 503
                assert exc_info.value.headers["Retry-After"] == "1"
                payload = json.loads(exc_info.value.read().decode())
                assert payload["retry_after_s"] == 0.5
                # Shed counter is visible on /v1/metrics.
                client = PredictionClient(server.url)
                assert client.metrics()["metrics"]["counters"]["serving.shed"] == 1
        finally:
            gate.release.set()
            thread.join(timeout=10)

    def test_client_maps_503_to_typed_error(self, make_engine):
        service, gate, thread = _saturated_service(make_engine())
        try:
            with RestServer(service) as server:
                client = PredictionClient(server.url)
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    client.predict("another prompt")
                assert exc_info.value.retry_after_s == 0.5
        finally:
            gate.release.set()
            thread.join(timeout=10)


# -- chaos CLI ----------------------------------------------------------------


class TestChaosCli:
    def test_replay_is_byte_identical(self, tmp_path):
        from repro.cli import main

        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(["chaos", "--seed", "5", "--requests", "6", "--out", str(first)]) == 0
        assert main(["chaos", "--seed", "5", "--requests", "6", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        events = [json.loads(line) for line in first.read_text().splitlines()]
        summary = events[-1]
        assert summary["kind"] == "summary"
        assert summary["arena_bytes_in_use"] == 0
        outcomes = [event["outcome"] for event in events if event["kind"] == "request"]
        assert len(outcomes) == 6
        assert all(outcome in TERMINAL_OUTCOMES for outcome in outcomes)

    @pytest.mark.parametrize("flags", ENGINE_SHAPES)
    def test_the_cli_adds_nothing_to_the_library_log(self, tmp_path, flags):
        from repro.cli import main

        out = tmp_path / "cli.jsonl"
        argv = ["chaos", "--seed", "5", "--requests", "6", "--out", str(out), *flags.split()]
        assert main(argv) == 0
        library = run_engine_chaos(seed=5, requests=6, **ENGINE_SHAPES[flags])
        assert out.read_text() == library["log"]

    def test_different_seeds_differ(self, tmp_path):
        from repro.cli import main

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["chaos", "--seed", "1", "--out", str(a)]) == 0
        assert main(["chaos", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()
