"""One decode loop, one request lifecycle: sessions are batcher rows.

A keystroke session's extend is an ordinary engine request whose
admission gathers the longest path the prefix store holds of the buffer —
the session's own pinned path, usually — and whose normal finish pins the
context it fed.  What this file pins down is what that contract adds to
the conformance suites:

* the model does exactly the work the retired private session loop did —
  same ``forward_incremental`` calls, same shapes, in the same order;
* no way a request can end abnormally (deadline, cancel, a shed prefill)
  costs the session its path: it stays usable and byte-identical to a
  cold re-prefill;
* a store hit shares the batch with cold rows;
* a first token always yields a TTFT, on every serving path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import GenerationRequest, InferenceEngine, prefill_single
from repro.faults import FakeClock, FaultInjector, use
from repro.nn.kv_arena import KVArena, KVCache
from repro.nn.sampling import generate_greedy, plan_prompt
from repro.serving import PredictionService, SessionManager
from tests.conftest import drain, gather_into_slot, greedy_or_tie
from tests.test_streaming_equivalence import BUDGET, TRAIN_TEXTS, build_engine, network_for

pytestmark = pytest.mark.streaming


@pytest.fixture(scope="module")
def tokenizer():
    from repro.tokenizer.bpe import BpeTokenizer

    return BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)


def _truncated(cache: KVCache, length: int) -> KVCache:
    """A new cache holding ``cache``'s first ``length`` columns; ``cache`` is released."""
    keys, values = cache.view()
    kept = KVCache()
    if length:
        kept.append(keys[:, :, :length].copy(), values[:, :, :length].copy())
    cache.release()
    return kept


def _common(left: list[int], right: list[int]) -> int:
    """The length of the common prefix of two token sequences."""
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


def record_forwards(network, log: list) -> None:
    """Append ``(ids shape, cache length before)`` per ``forward_incremental``."""
    inner = network.forward_incremental

    def recording(ids, caches):
        log.append((tuple(ids.shape), caches[0].length))
        return inner(ids, caches)

    network.forward_incremental = recording


class _ReferenceSession:
    """The private session decode loop, written out as the yardstick: cut
    the caches back to the common prefix, one forward over the suffix, then
    one batch-1 forward per generated token that is fed back."""

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
            self.caches = [_truncated(cache, common) for cache in self.caches]
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
        window = network.config.n_positions
        engine = InferenceEngine(network, tokenizer, default_max_new_tokens=budget)
        manager = SessionManager(engine)
        reference = _ReferenceSession(network, tokenizer)
        got: list = []
        want: list = []
        expected: list = []
        contexts: list[list[int]] = []  # every fed context the store has been left
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
                # What the store holds decides the reuse: the longest common
                # prefix with any context left so far, short of the last token.
                planned, _ = plan_prompt(window, tokenizer.encode(buffer), budget)
                cached = min(
                    max((_common(planned, context) for context in contexts), default=0),
                    len(planned) - 1,
                )
                expected.append(((1, len(planned) - cached), cached))
                expected.extend(((1, 1), len(planned) + fed) for fed in range(len(tokens) - 1))
                contexts.append(planned + tokens[:-1])  # the last token has no K/V
                # accept the suggestion on even keystrokes, reject it on odd
                # ones, and edit earlier text once so the match falls back
                if keystroke % 2 == 0:
                    buffer += payload["completion"]
                if keystroke == 6:
                    buffer = buffer.replace("openssh-server", "dropbear")
                buffer += f"\n- name: Task number {keystroke}\n"
        finally:
            network.forward_incremental = original
        assert len(got) == 13 * budget  # one prefill + budget - 1 fed tokens each
        assert got == expected
        # The same positions as the old loop, never more prefill: the store
        # may hold a longer head than the session's last context (after the
        # buffer outgrows the window and the left truncation shifts it, an
        # older context can still match where the last one no longer does).
        assert [shape[1] + cached for shape, cached in got] == [
            shape[1] + cached for shape, cached in want
        ]
        assert all(mine[1] >= old[1] for mine, old in zip(got, want))
        assert any(mine[1] > old[1] for mine, old in zip(got, want))
        stats = engine.stats()
        assert stats["decode_steps"] == 13 * (budget - 1)
        assert stats["decode_tokens"] == 13 * (budget - 1)
        assert stats["mean_batch_occupancy"] == 1.0
        # every request walked the store; once the buffer outgrows the window
        # its left truncation shifts the tokens and the walk misses
        assert stats["prefix_cache"]["hits"] + stats["prefix_cache"]["misses"] == 13
        assert stats["prefix_cache"]["tokens_reused"] == manager.stats()["reused_tokens"]
        assert stats["prefill_tokens"] == manager.stats()["prefill_tokens"]
        manager.close_all()
        engine.prefix_cache.clear()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0


class TestAbnormalExitsKeepTheSession:
    BUFFER = TRAIN_TEXTS[2]
    GROWN = TRAIN_TEXTS[2] + "- name: Restart nginx\n"

    def _cold(self, tokenizer, buffer: str) -> dict:
        return SessionManager(build_engine(tokenizer, 1)).create(buffer, BUDGET)

    def _check_usable(self, tokenizer, engine, manager, session_id):
        """Every KV byte is the store's, and the session's path is good for the next extend."""
        assert engine.batcher.active_size == engine.batcher.queue_depth == 0
        in_use = engine.kv_arena.stats()["bytes_in_use"]
        assert in_use == engine.prefix_cache.stats()["bytes_held"] > 0
        again = self.GROWN + "- name: Reload the unit\n"
        extended = manager.extend(session_id, again, BUDGET)
        assert extended["outcome"] == "completed"
        assert extended["reused_tokens"] > 0
        assert extended["completion"] == self._cold(tokenizer, again)["completion"]
        assert manager.close(session_id) is True
        engine.prefix_cache.clear()
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

    def test_prefill_fault_sheds_the_request_and_the_session_stays_open(self, tokenizer):
        from repro.errors import ServiceOverloadedError

        engine = build_engine(tokenizer, 1)
        manager = SessionManager(engine)
        created = manager.create(self.BUFFER, BUDGET)["session_id"]
        faulty = FaultInjector(seed=0)
        faulty.on("kv_arena.acquire", at_calls=[1])  # the batch open: its first slot slab
        with faulty, pytest.raises(ServiceOverloadedError):
            manager.extend(created, self.GROWN, BUDGET)
        assert [event["call"] for event in faulty.events()] == [1]
        stats = manager.stats()
        assert (stats["created"], stats["live_sessions"]) == (1, 1)
        assert engine.stats()["shed_requests"] == 1
        assert engine.kv_arena.stats()["bytes_in_use"] == engine.prefix_cache.stats()["bytes_held"]
        self._check_usable(tokenizer, engine, manager, created)


class TestStoreHitsShareTheBatch:
    """A request that hits the prefix store decodes beside cold rows:
    admission gathers its match straight into its slot row and prefills
    the rest there, and its normal finish leaves its fed context in the
    store."""

    BUDGET = 6
    HEAD = 4

    def _setup(self, tokenizer):
        engine = build_engine(tokenizer, 0)  # four slots
        prompts = [tokenizer.encode(text)[:length] for text, length in zip(TRAIN_TEXTS, (9, 14, 6))]
        return engine, prompts

    def _request(self, request_id, prompt, engine=None) -> GenerationRequest:
        if engine is not None:  # a hit: the store already holds the prompt's head
            head = prompt[: self.HEAD]
            caches = engine.network.new_cache(engine.kv_arena)
            prefill_single(engine.network, head, caches)
            engine.prefix_cache.insert(head, caches)
            for cache in caches:
                cache.release()
        return GenerationRequest(
            request_id=request_id,
            prompt_ids=prompt,
            max_new_tokens=self.BUDGET,
            effective_budget=self.BUDGET,
        )

    def _check(self, engine, requests, hit):
        network = engine.network
        for request in requests:
            assert request.outcome == "completed"
            assert greedy_or_tie(network, request.prompt_ids, request.generated, self.BUDGET)
        assert engine.batcher.stats()["mean_batch_occupancy"] > 1.0
        assert hit.prefix_reused == self.HEAD
        # prompt + every fed token is in the store; the last one never was fed
        fed = (hit.prompt_ids + hit.generated)[:-1]
        store = engine.prefix_cache
        match = store.lookup(fed + [0])
        assert match[0] == len(fed)
        reference = network.new_cache(KVArena())
        prefill_single(network, fed, reference)
        for got, want in zip(gather_into_slot(store, match, len(fed) + 1), reference):
            for got_array, want_array in zip(got, want.view()):
                np.testing.assert_allclose(got_array, want_array, rtol=1e-4, atol=1e-5)
            want.release()
        store.clear()
        assert engine.kv_arena.stats()["bytes_in_use"] == 0

    def test_store_hit_admitted_beside_decoding_cold_rows(self, tokenizer):
        engine, prompts = self._setup(tokenizer)
        batcher = engine.batcher
        cold = [self._request(i, prompt) for i, prompt in enumerate(prompts[:2])]
        for request in cold:
            batcher.submit(request)
        assert batcher.step() and batcher.active_size == 2
        hit = self._request(2, prompts[2], engine)
        batcher.submit(hit)  # beside two decoding cold rows
        assert batcher.step() and batcher.active_size == 3
        drain(batcher)
        self._check(engine, [*cold, hit], hit)

    def test_cold_rows_join_a_decoding_store_hit(self, tokenizer):
        engine, prompts = self._setup(tokenizer)
        batcher = engine.batcher
        hit = self._request(0, prompts[0], engine)
        batcher.submit(hit)
        assert batcher.step() and batcher.active_size == 1
        cold = [self._request(i, prompt) for i, prompt in enumerate(prompts[1:], start=1)]
        for request in cold:
            batcher.submit(request)  # beside the decoding store hit
        assert batcher.step() and batcher.active_size == 3
        drain(batcher)
        self._check(engine, [hit, *cold], hit)

    def _join_a_decoding_row(self, tokenizer, hit: bool):
        """Admit one request, a store hit or a miss, while a cold row decodes,
        with every arena acquire armed to fault.  Returns the arena's counter
        deltas over that admission step."""
        engine, prompts = self._setup(tokenizer)
        batcher, arena = engine.batcher, engine.kv_arena
        cold = self._request(0, prompts[0])
        batcher.submit(cold)
        assert batcher.step() and batcher.active_size == 1
        joining = self._request(1, prompts[1], engine if hit else None)
        before = arena.stats()
        faulty = FaultInjector(seed=0).on("kv_arena.acquire", probability=1.0)
        with faulty:
            batcher.submit(joining)
            assert batcher.step() and batcher.active_size == 2  # nothing retired
        after = arena.stats()
        assert faulty.events() == []  # an acquire would have faulted
        assert batcher.stats()["shed_requests"] == 0
        drain(batcher)
        for request in (cold, joining):
            assert request.outcome == "completed"
            assert greedy_or_tie(engine.network, request.prompt_ids, request.generated, self.BUDGET)
        assert joining.prefix_reused == (self.HEAD if hit else 0)
        engine.prefix_cache.clear()
        assert arena.stats()["bytes_in_use"] == 0
        delta = {key: after[key] - before[key] for key in after}
        assert delta["slabs_allocated"] == delta["slabs_reused"] == 0
        return engine, delta

    def test_a_hit_joining_an_open_batch_copies_its_match_once_and_allocates_nothing(
        self, tokenizer
    ):
        engine, delta = self._join_a_decoding_row(tokenizer, hit=True)
        config = engine.network.config
        column = 2 * config.dim * 4  # K and V of one token in one layer, float32
        assert delta["cow_copies"] == config.n_layers  # one gather per layer
        assert delta["bytes_copied"] == config.n_layers * self.HEAD * column

    def test_a_miss_joining_an_open_batch_copies_nothing(self, tokenizer):
        _, delta = self._join_a_decoding_row(tokenizer, hit=False)
        assert delta["cow_copies"] == delta["bytes_copied"] == 0


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
