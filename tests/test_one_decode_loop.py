"""One decode loop, one request lifecycle: sessions are batcher rows.

A keystroke session's extend is an ordinary engine request that carries
the session's warm KV handles (``GenerationRequest.caches``); the batcher
prefills atop them, decodes the row like any other, and hands the K/V back
when the row leaves.  What this file pins down is what that contract adds
to the conformance suites:

* the model does exactly the work the retired private session loop did —
  same ``forward_incremental`` calls, same shapes, in the same order;
* every way a row can leave the batch abnormally (deadline, cancel)
  returns the slabs to the session, which stays usable and byte-identical
  to a cold re-prefill;
* a warm row shares the batch with cold rows;
* a first token always yields a TTFT, on every serving path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import GenerationRequest, InferenceEngine, prefill_single
from repro.faults import FakeClock, FaultInjector, use
from repro.nn.kv_arena import KVArena
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.serving import PredictionService, SessionManager
from tests.conftest import drain, greedy_or_tie
from tests.test_streaming_equivalence import BUDGET, TRAIN_TEXTS, build_engine, network_for

pytestmark = pytest.mark.streaming


@pytest.fixture(scope="module")
def tokenizer():
    from repro.tokenizer.bpe import BpeTokenizer

    return BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)


def session_slab_bytes(manager: SessionManager) -> int:
    """Bytes of every slab the manager's live sessions hold (white box)."""
    return sum(
        cache._slab.nbytes
        for session in manager._sessions.values()
        for cache in session.caches
        if cache._slab is not None
    )


def record_forwards(network, log: list) -> None:
    """Append ``(ids shape, cache length before)`` per ``forward_incremental``."""
    inner = network.forward_incremental

    def recording(ids, caches):
        log.append((tuple(ids.shape), caches[0].length))
        return inner(ids, caches)

    network.forward_incremental = recording


class _ReferenceSession:
    """The session decode loop this PR deleted, written out as the yardstick:
    truncate to the common prefix, one forward over the suffix, then one
    batch-1 forward per generated token that is fed back."""

    def __init__(self, network, tokenizer):
        self.network, self.tokenizer = network, tokenizer
        self.caches = network.new_cache()
        self.cached_ids: list[int] = []

    def extend(self, buffer: str, budget: int) -> list[int]:
        window = self.network.config.n_positions
        planned, _ = plan_prompt(window, self.tokenizer.encode(buffer), budget)
        common = 0
        while (
            common < min(len(self.cached_ids), len(planned) - 1)
            and self.cached_ids[common] == planned[common]
        ):
            common += 1
        if common < self.caches[0].length:
            for cache in self.caches:
                cache.truncate(common)
            del self.cached_ids[common:]
        suffix = planned[common:]
        logits = self.network.forward_incremental(np.array([suffix], dtype=np.int64), self.caches)
        self.cached_ids.extend(suffix)
        generated: list[int] = []
        while True:
            pending = int(logits[0, -1].argmax())
            generated.append(pending)
            if len(generated) >= budget or len(planned) + len(generated) >= window:
                return generated
            logits = self.network.forward_incremental(
                np.array([[pending]], dtype=np.int64), self.caches
            )
            self.cached_ids.append(pending)


class TestSameWork:
    def test_twelve_extend_episode_makes_the_old_loops_forward_calls(self, tokenizer):
        budget = 8
        network = network_for(3, tokenizer.vocab_size)
        engine = InferenceEngine(network, tokenizer, default_max_new_tokens=budget)
        manager = SessionManager(engine)
        reference = _ReferenceSession(network, tokenizer)
        got: list = []
        want: list = []
        original = network.forward_incremental
        try:
            buffer = TRAIN_TEXTS[0]
            session_id = None
            for keystroke in range(13):  # create + 12 extends
                record_forwards(network, got)
                if session_id is None:
                    payload = manager.create(buffer, budget)
                    session_id = payload["session_id"]
                else:
                    payload = manager.extend(session_id, buffer, budget)
                network.forward_incremental = original
                record_forwards(network, want)
                tokens = reference.extend(buffer, budget)
                network.forward_incremental = original
                assert payload["completion"] == tokenizer.decode(tokens)
                # accept the suggestion on even keystrokes, reject it on odd
                # ones, and edit earlier text once so the slab truncates
                if keystroke % 2 == 0:
                    buffer += payload["completion"]
                if keystroke == 6:
                    buffer = buffer.replace("openssh-server", "dropbear")
                buffer += f"\n- name: Task number {keystroke}\n"
        finally:
            network.forward_incremental = original
        assert got == want
        assert len(got) == 13 * budget  # one prefill + budget - 1 fed tokens per call
        stats = engine.stats()
        assert stats["decode_steps"] == 13 * (budget - 1)
        assert stats["decode_tokens"] == 13 * (budget - 1)
        assert stats["mean_batch_occupancy"] == 1.0
        assert stats["prefix_cache"]["hits"] == stats["prefix_cache"]["misses"] == 0
        assert stats["prefix_cache"]["entries"] == 0
        assert stats["prefill_tokens"] == manager.stats()["prefill_tokens"]
        manager.close_all()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0


class TestAbnormalExitsKeepTheSession:
    BUFFER = TRAIN_TEXTS[2]
    GROWN = TRAIN_TEXTS[2] + "- name: Restart nginx\n"

    def _cold(self, tokenizer, buffer: str) -> dict:
        return SessionManager(build_engine(tokenizer, 1)).create(buffer, BUDGET)

    def _check_usable(self, tokenizer, engine, manager, session_id):
        """The slabs came back: accounted for, and good for the next extend."""
        assert engine.batcher.active_size == engine.batcher.queue_depth == 0
        in_use = engine.kv_arena.stats()["bytes_in_use"]
        assert in_use == session_slab_bytes(manager) > 0
        again = self.GROWN + "- name: Reload the unit\n"
        extended = manager.extend(session_id, again, BUDGET)
        assert extended["outcome"] == "completed"
        assert extended["reused_tokens"] > 0
        assert extended["completion"] == self._cold(tokenizer, again)["completion"]
        assert manager.close(session_id) is True
        assert engine.kv_arena.stats()["bytes_in_use"] == 0

    def test_deadline_exceeded_extend_leaves_a_usable_session(self, tokenizer):
        with use(FakeClock()):
            engine = build_engine(tokenizer, 1)
            manager = SessionManager(engine)
            created = manager.create(self.BUFFER, BUDGET)
            slow = FaultInjector(seed=0)
            slow.on("engine.decode_step", at_calls=[3], delay_s=5.0, error=None)
            with slow:
                late = manager.extend(created["session_id"], self.GROWN, BUDGET, deadline_s=1.0)
            assert late["outcome"] == "deadline_exceeded"
            assert 0 < late["generated_tokens"] < BUDGET
            assert engine.stats()["deadline_expired_requests"] == 1
            self._check_usable(tokenizer, engine, manager, created["session_id"])

    def test_cancelled_mid_decode_extend_leaves_a_usable_session(self, tokenizer):
        engine = build_engine(tokenizer, 1)
        manager = SessionManager(engine)
        created = manager.create(self.BUFFER, BUDGET)
        step, calls = engine.batcher.step, []

        def cancelling_step():
            calls.append(None)
            if len(calls) == 4:  # three steps in: the row is mid-decode
                for row in engine.batcher.batch.rows:
                    row.payload.cancel()
            return step()

        engine.batcher.step = cancelling_step
        try:
            cut = manager.extend(created["session_id"], self.GROWN, BUDGET)
        finally:
            del engine.batcher.step
        assert cut["outcome"] == "cancelled"
        assert 0 < cut["generated_tokens"] < BUDGET
        assert engine.stats()["cancelled_requests"] == 1
        self._check_usable(tokenizer, engine, manager, created["session_id"])

    def test_prefill_fault_sheds_the_request_and_loses_only_that_session(self, tokenizer):
        from repro.errors import ServiceOverloadedError, SessionNotFoundError

        engine = build_engine(tokenizer, 1)
        manager = SessionManager(engine)
        kept = manager.create(TRAIN_TEXTS[0], BUDGET)["session_id"]
        doomed = manager.create(self.BUFFER, BUDGET)["session_id"]
        # Not GROWN: a suffix long enough to outgrow the slab, so the
        # prefill has to ask the arena for a bigger one.
        long_buffer = self.BUFFER + "".join(TRAIN_TEXTS)
        faulty = FaultInjector(seed=0)
        faulty.on("kv_arena.acquire", at_calls=[1])
        with faulty, pytest.raises(ServiceOverloadedError):
            manager.extend(doomed, long_buffer, BUDGET)
        stats = manager.stats()
        assert (stats["lost"], stats["live_sessions"]) == (1, 1)
        assert engine.stats()["shed_requests"] == 1
        with pytest.raises(SessionNotFoundError):
            manager.extend(doomed, long_buffer, BUDGET)
        assert engine.kv_arena.stats()["bytes_in_use"] == session_slab_bytes(manager)
        assert manager.extend(kept, TRAIN_TEXTS[0] + "x\n", BUDGET)["outcome"] == "completed"
        manager.close_all()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0


class TestWarmRowsShareTheBatch:
    """A warm row decodes beside cold rows: admission copies it into a slot,
    and retirement appends what it decoded to the owner's handles."""

    BUDGET = 6

    def _setup(self, tokenizer):
        engine = build_engine(tokenizer, 0)  # four slots
        prompts = [tokenizer.encode(text)[:length] for text, length in zip(TRAIN_TEXTS, (9, 14, 6))]
        return engine, prompts

    def _request(self, request_id, prompt, engine=None) -> GenerationRequest:
        caches = None
        if engine is not None:  # warm: the handles already hold a prefix, as a session's do
            caches, _, _ = prefill_single(engine.network, prompt[:4], arena=engine.kv_arena)
        return GenerationRequest(
            request_id=request_id,
            prompt_ids=prompt,
            max_new_tokens=self.BUDGET,
            effective_budget=self.BUDGET,
            caches=caches,
        )

    def _check(self, engine, requests, warm):
        network = engine.network
        for request in requests:
            assert request.outcome == "completed"
            assert greedy_or_tie(network, request.prompt_ids, request.generated, self.BUDGET)
        assert engine.batcher.stats()["mean_batch_occupancy"] > 1.0
        # prompt + every fed token is in the handles; the last one never was fed
        fed = (warm.prompt_ids + warm.generated)[: warm.caches[0].length]
        assert len(fed) == warm.prompt_length + len(warm.generated) - 1
        reference, _, _ = prefill_single(network, fed, arena=KVArena())
        for own, want in zip(warm.caches, reference):
            for got_array, want_array in zip(own.view(), want.view()):
                np.testing.assert_allclose(got_array, want_array, rtol=1e-4, atol=1e-5)
            own.release()
            want.release()
        engine.prefix_cache.clear()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0

    def test_warm_row_admitted_beside_cold_rows(self, tokenizer):
        engine, prompts = self._setup(tokenizer)
        batcher = engine.batcher
        cold = [self._request(i, prompt) for i, prompt in enumerate(prompts[:2])]
        for request in cold:
            batcher.submit(request)
        assert batcher.step() and batcher.active_size == 2
        warm = self._request(2, prompts[2], engine)
        batcher.submit(warm)  # beside two decoding cold rows
        assert batcher.step() and batcher.active_size == 3
        drain(batcher)
        self._check(engine, [*cold, warm], warm)

    def test_cold_rows_join_a_decoding_warm_row(self, tokenizer):
        engine, prompts = self._setup(tokenizer)
        batcher = engine.batcher
        warm = self._request(0, prompts[0], engine)
        batcher.submit(warm)
        assert batcher.step() and batcher.active_size == 1
        cold = [self._request(i, prompt) for i, prompt in enumerate(prompts[1:], start=1)]
        for request in cold:
            batcher.submit(request)  # beside the decoding warm row
        assert batcher.step() and batcher.active_size == 3
        drain(batcher)
        self._check(engine, [warm, *cold], warm)


class TestFirstTokenFinishHasATtft:
    """A first token was produced ⇒ a TTFT exists — predict, stream, session."""

    PROMPT = TRAIN_TEXTS[1]

    def _service(self, tokenizer, stop_first_token: bool) -> PredictionService:
        network = network_for(0, tokenizer.vocab_size)
        stop_ids = frozenset()
        if stop_first_token:
            first = generate_greedy(network, tokenizer.encode(self.PROMPT), 1).token_ids[0]
            stop_ids = frozenset({first})
        engine = InferenceEngine(
            network, tokenizer, default_max_new_tokens=BUDGET, stop_ids=stop_ids
        )
        return PredictionService(engine, cache_capacity=1)

    @pytest.mark.parametrize("stop_first_token", (False, True), ids=("budget-1", "stop-id"))
    def test_every_path_reports_a_ttft(self, tokenizer, stop_first_token):
        budget = BUDGET if stop_first_token else 1
        reason = "stop_token" if stop_first_token else "max_tokens"
        service = self._service(tokenizer, stop_first_token)
        detail = service.engine.complete_batch_detailed([self.PROMPT], budget)[0]
        assert detail["stop_reason"] == reason and detail["ttft_s"] is not None
        predicted = service.predict(self.PROMPT, budget)
        assert predicted["ttft_ms"] >= 0.0
        service.cache.clear()
        done = [data for event, data in service.predict_stream(self.PROMPT, budget) if event == "done"]
        assert done[0]["stop_reason"] == reason and done[0]["ttft_ms"] is not None
        created = service.session_create(self.PROMPT, budget)
        assert created["stop_reason"] == reason and created["ttft_ms"] >= 0.0
        assert created["generated_tokens"] == (0 if stop_first_token else 1)
        assert service.session_close(created["session_id"])["closed"] is True
        service.engine.prefix_cache.clear()
        assert service.engine.kv_arena.stats()["bytes_in_use"] == 0
        # never decoded a step, yet each request began (and ended) its decode phase
        assert service.engine.stats()["decode_steps"] == 0
        assert service.metrics()["metrics"]["histograms"]["engine.decode_s"]["count"] == 4
