"""Keystroke sessions: lifecycle, eviction, HTTP surface, leaks.

The session manager holds warm KV slabs between requests — exactly the
kind of state that leaks when lifecycle paths (LRU eviction, explicit
close, crash close_all) miss a release.  Every test here ends by
asserting the arena is empty once sessions are gone.
"""

from __future__ import annotations

import pytest

from repro.errors import ServingError, SessionNotFoundError
from repro.serving import PredictionService, RestServer, SessionManager
from repro.serving.client import PredictionClient
from tests.test_streaming_equivalence import TRAIN_TEXTS, build_engine

pytestmark = pytest.mark.streaming

BUFFER = TRAIN_TEXTS[0]


@pytest.fixture(scope="module")
def tokenizer():
    from repro.tokenizer.bpe import BpeTokenizer

    return BpeTokenizer.train(TRAIN_TEXTS, vocab_size=300)


def arena_empty(engine) -> bool:
    engine.prefix_cache.clear()
    return engine.kv_arena.stats()["bytes_in_use"] == 0


class TestLifecycle:
    def test_create_extend_close_accounting(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine)
        created = manager.create(BUFFER, 8)
        assert created["outcome"] == "completed"
        assert created["extends"] == 0
        grown = BUFFER + created["completion"] + "\n- name: Another step\n"
        extended = manager.extend(created["session_id"], grown, 8)
        assert extended["extends"] == 1
        assert extended["reused_tokens"] > 0
        stats = manager.stats()
        assert stats["created"] == 1 and stats["extends"] == 1
        assert stats["token_reuse_rate"] > 0
        assert manager.close(created["session_id"]) is True
        assert manager.close(created["session_id"]) is False
        assert manager.count == 0
        assert arena_empty(engine)

    def test_unknown_session_raises_404_error(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine)
        with pytest.raises(SessionNotFoundError):
            manager.extend("s9999", BUFFER, 4)

    def test_empty_buffer_rejected(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        service = PredictionService(engine)
        with pytest.raises(ServingError):
            service.session_create("   ")

    def test_session_ids_are_stable_and_unique(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine)
        ids = [manager.create(text, 4)["session_id"] for text in TRAIN_TEXTS[:3]]
        assert len(set(ids)) == 3 and manager.count == 3
        for session_id, text in zip(ids, TRAIN_TEXTS):
            manager.extend(session_id, text + "x\n", 4)  # each id still names its session


class TestEviction:
    def test_lru_eviction_over_capacity_releases_slabs(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine, max_sessions=2)
        first = manager.create(TRAIN_TEXTS[0], 4)["session_id"]
        second = manager.create(TRAIN_TEXTS[1], 4)["session_id"]
        third = manager.create(TRAIN_TEXTS[2], 4)["session_id"]
        assert manager.count == 2
        assert manager.stats()["evicted"] == 1
        with pytest.raises(SessionNotFoundError):
            manager.extend(first, TRAIN_TEXTS[0] + "x\n", 4)
        # survivors still extend fine
        manager.extend(third, TRAIN_TEXTS[2] + "x\n", 4)
        manager.close_all()
        assert arena_empty(engine)
        assert second  # silence unused warning

    def test_lru_eviction_releases_slabs_under_the_engine_lock(self, tokenizer):
        # Releasing a slab writes the arena, which a decoding thread may be
        # using: close, close_all and the create unwind hold the engine
        # lock for it, and so must the LRU bound.
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine, max_sessions=1)
        manager.create(TRAIN_TEXTS[0], 4)
        held: list[bool] = []
        release = engine.kv_arena.release

        def recording(slab):
            held.append(engine._lock.locked())
            release(slab)

        engine.kv_arena.release = recording
        try:
            manager.create(TRAIN_TEXTS[1], 4)  # evicts the first session
        finally:
            del engine.kv_arena.release
        assert manager.stats()["evicted"] == 1
        assert held and all(held)
        manager.close_all()
        assert arena_empty(engine)

    def test_extend_refreshes_lru_position(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine, max_sessions=2)
        first = manager.create(TRAIN_TEXTS[0], 4)["session_id"]
        second = manager.create(TRAIN_TEXTS[1], 4)["session_id"]
        manager.extend(first, TRAIN_TEXTS[0] + "y\n", 4)  # first is now MRU
        manager.create(TRAIN_TEXTS[2], 4)  # evicts the least recently used: second
        manager.extend(first, TRAIN_TEXTS[0] + "y\nz\n", 4)
        with pytest.raises(SessionNotFoundError):
            manager.extend(second, TRAIN_TEXTS[1] + "y\n", 4)

    def test_close_all_drops_everything(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        manager = SessionManager(engine, max_sessions=8)
        for text in TRAIN_TEXTS:
            manager.create(text, 4)
        assert manager.close_all() == len(TRAIN_TEXTS)
        assert manager.count == 0
        assert arena_empty(engine)


class TestHttpSurface:
    def test_session_endpoints_roundtrip(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        service = PredictionService(engine)
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            created = client.session_create(BUFFER, max_new_tokens=6)
            assert created["session_id"].startswith("s")
            assert "ttft_ms" in created
            grown = BUFFER + created["completion"] + "\n- name: Next\n"
            extended = client.session_extend(created["session_id"], grown, max_new_tokens=6)
            assert extended["reused_tokens"] > 0
            closed = client.session_close(created["session_id"])
            assert closed["closed"] is True
        assert arena_empty(engine)

    def test_extend_unknown_session_is_http_404(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        service = PredictionService(engine)
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            with pytest.raises(SessionNotFoundError):
                client.session_extend("s4242", BUFFER, max_new_tokens=4)

    def test_stats_surface_sessions(self, tokenizer):
        engine = build_engine(tokenizer, 0)
        service = PredictionService(engine)
        with RestServer(service) as server:
            client = PredictionClient(server.url)
            client.session_create(BUFFER, max_new_tokens=4)
            stats = client.stats()
        assert stats["sessions"]["created"] == 1
        assert stats["sessions"]["live_sessions"] == 1

    def test_service_rejects_an_engine_without_tokenizer(self, tokenizer):
        # the service speaks text and its sessions tokenize buffers
        from repro.engine import InferenceEngine

        with pytest.raises(ServingError):
            PredictionService(InferenceEngine(build_engine(tokenizer, 0).network))
