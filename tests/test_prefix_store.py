"""What one prefix store does that two homes for K/V could not.

Predicts, streams, batches and keystroke sessions all walk the same token
trie at admission and leave their fed context in it when they complete,
and a session is an id plus a pinned path.  So K/V computed for one kind
of traffic serves every other kind: a second session reuses the head a
first one fed, a predict reuses an earlier request's completion, and a
pinned path outlives any amount of unpinned traffic and any ``clear()``.
"""

from __future__ import annotations

import pytest

from repro.engine import InferenceEngine
from repro.serving import SessionManager
from tests.conftest import greedy_or_tie
from tests.test_streaming_equivalence import BUDGET, TRAIN_TEXTS, build_engine, network_for

pytestmark = pytest.mark.streaming


@pytest.fixture(scope="module")
def tokenizer():
    from repro.tokenizer.bpe import BpeTokenizer

    return BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)


def _cold(tokenizer, seed: int, buffer: str) -> dict:
    return SessionManager(build_engine(tokenizer, seed)).create(buffer, BUDGET)


def test_a_second_session_reuses_the_head_a_first_one_fed(tokenizer):
    engine = build_engine(tokenizer, 1)
    manager = SessionManager(engine)
    first_buffer = TRAIN_TEXTS[0] + TRAIN_TEXTS[2]
    second_buffer = TRAIN_TEXTS[0] + TRAIN_TEXTS[3]
    first = manager.create(first_buffer, BUDGET)
    second = manager.create(second_buffer, BUDGET)
    assert first["reused_tokens"] == 0
    assert second["reused_tokens"] > 0
    assert first["completion"] == _cold(tokenizer, 1, first_buffer)["completion"]
    assert second["completion"] == _cold(tokenizer, 1, second_buffer)["completion"]
    manager.close_all()
    engine.prefix_cache.clear()
    assert engine.kv_arena.stats()["bytes_in_use"] == 0


def test_a_predict_reuses_an_earlier_requests_completion(tokenizer):
    engine = build_engine(tokenizer, 2)
    prompt = tokenizer.encode(TRAIN_TEXTS[1])
    (earlier,) = engine.generate_batch([prompt], BUDGET)
    # the editor accepted the completion and typed on
    later = prompt + earlier.token_ids + tokenizer.encode("\n- name: Next\n")
    handles: list = []
    (result,) = engine.generate_batch([later], BUDGET, handles=handles)
    # every completion token but the last was fed, so its K/V is stored;
    # the last never was, so the store holds nothing for it
    assert handles[0].prefix_reused == len(prompt) + len(earlier.token_ids) - 1
    assert greedy_or_tie(engine.network, later, result.token_ids, BUDGET)


def test_a_pinned_path_outlives_unpinned_traffic_at_capacity_one(tokenizer):
    engine = InferenceEngine(
        network_for(0, tokenizer.vocab_size),
        tokenizer,
        prefix_cache_capacity=1,
        default_max_new_tokens=BUDGET,
    )
    manager = SessionManager(engine)
    buffer = TRAIN_TEXTS[0]
    created = manager.create(buffer, BUDGET)
    for text in TRAIN_TEXTS[1:] * 2:  # each predict's path evicts the one before it
        engine.generate_batch([tokenizer.encode(text)], BUDGET)
    store = engine.prefix_cache.stats()
    assert store["evictions"] >= len(TRAIN_TEXTS) - 2
    ids = tokenizer.encode(buffer)
    assert engine.prefix_cache.lookup(ids + ids[:1])[0] == len(ids)
    extended = manager.extend(created["session_id"], buffer + "  tags: ssh\n", BUDGET)
    assert extended["reused_tokens"] >= len(ids)
    assert extended["completion"] == _cold(tokenizer, 0, buffer + "  tags: ssh\n")["completion"]
    manager.close_all()
    engine.prefix_cache.clear()
    assert engine.kv_arena.stats()["bytes_in_use"] == 0


def test_abort_all_keeps_a_live_sessions_path(tokenizer):
    engine = build_engine(tokenizer, 3)
    manager = SessionManager(engine)
    buffer = TRAIN_TEXTS[2]
    created = manager.create(buffer, BUDGET)
    engine.generate_batch([tokenizer.encode(TRAIN_TEXTS[3])], BUDGET)
    engine.abort_all()
    # the clear dropped the predict's path and kept the pinned one
    held = engine.prefix_cache.stats()["bytes_held"]
    assert held > 0 and engine.kv_arena.stats()["bytes_in_use"] == held
    grown = buffer + created["completion"] + "\n- name: Reload nginx\n"
    requests: list = []
    pinned = engine.generate_pinned
    engine.generate_pinned = lambda *args: requests.append(pinned(*args)) or requests[-1]
    extended = manager.extend(created["session_id"], grown, BUDGET)
    del engine.generate_pinned
    assert extended["outcome"] == "completed" and extended["reused_tokens"] > 0
    (request,) = requests
    assert greedy_or_tie(engine.network, request.prompt_ids, request.generated, BUDGET)
    assert manager.close(created["session_id"]) is True
    engine.abort_all()
    assert engine.kv_arena.stats()["bytes_in_use"] == 0


def test_a_first_token_finish_leaves_its_prompt_in_the_store(tokenizer):
    engine = build_engine(tokenizer, 2)
    prompt = tokenizer.encode(TRAIN_TEXTS[3])
    engine.generate_batch([prompt], 1)  # ends on its first token: never takes a batch row
    assert engine.stats()["decode_steps"] == 0
    assert engine.prefix_cache.stats()["bytes_held"] > 0
    handles: list = []
    (result,) = engine.generate_batch([prompt + prompt[:2]], BUDGET, handles=handles)
    assert handles[0].prefix_reused == len(prompt)
    assert greedy_or_tie(engine.network, prompt + prompt[:2], result.token_ids, BUDGET)
