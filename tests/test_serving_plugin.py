"""Dedicated tests for repro.serving.plugin (the editor-session simulation).

The plugin protocol is the paper's VS Code flow: type a ``- name:`` prompt,
hit enter to trigger a prediction, then tab to accept or escape to reject.
These tests pin the keystroke state machine itself; the service behind it
is covered by test_serving.py / test_faults.py.
"""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.serving.plugin import ESCAPE, EditorSession, Suggestion, TAB
from repro.serving.service import PredictionService


class _ScriptedBackend:
    """Answers the session API with canned payloads; records the buffers."""

    def __init__(self, completion="  ansible.builtin.apt:\n    name: nginx\n"):
        self.completion = completion
        self.prompts: list[str] = []

    def session_create(self, buffer):
        self.prompts.append(buffer)
        return {"session_id": "s0", "completion": self.completion, "latency_ms": 1.5}

    def session_extend(self, session_id, buffer):
        return self.session_create(buffer)

    def session_close(self, session_id):
        return {"session_id": session_id, "closed": True}


class TestKeystrokeProtocol:
    def test_type_text_accumulates(self):
        session = EditorSession(backend=_ScriptedBackend())
        session.type_text("---\n")
        session.type_text("- name: Install nginx")
        assert session.buffer == "---\n- name: Install nginx"

    def test_enter_triggers_prediction_with_whole_buffer(self):
        backend = _ScriptedBackend()
        session = EditorSession(backend=backend)
        session.type_text("- name: Install nginx")
        suggestion = session.press_enter()
        assert isinstance(suggestion, Suggestion)
        assert suggestion.text == backend.completion
        assert suggestion.latency_ms == 1.5 and suggestion.cached is False
        # The trigger sends the full buffer (context), newline-terminated.
        assert backend.prompts == ["- name: Install nginx\n"]

    def test_enter_requires_name_prompt_line(self):
        session = EditorSession(backend=_ScriptedBackend())
        session.type_text("hosts: all")
        with pytest.raises(ServingError):
            session.press_enter()

    def test_enter_with_pending_suggestion_raises(self):
        session = EditorSession(backend=_ScriptedBackend())
        session.type_text("- name: Install nginx")
        session.press_enter()
        with pytest.raises(ServingError):
            session.press_enter()

    def test_tab_accepts_and_appends(self):
        session = EditorSession(backend=_ScriptedBackend(completion="  apt: {name: nginx}"))
        session.type_text("- name: Install nginx")
        session.press_enter()
        buffer = session.press(TAB)
        assert buffer.endswith("  apt: {name: nginx}\n")  # newline normalised
        assert session.accepted == 1 and session.rejected == 0

    def test_escape_rejects_and_leaves_buffer(self):
        session = EditorSession(backend=_ScriptedBackend())
        session.type_text("- name: Install nginx")
        session.press_enter()
        before = session.buffer
        after = session.press(ESCAPE)
        assert after == before  # suggestion discarded, prompt kept
        assert session.accepted == 0 and session.rejected == 1

    def test_press_without_pending_raises(self):
        session = EditorSession(backend=_ScriptedBackend())
        with pytest.raises(ServingError):
            session.press(TAB)

    def test_unknown_key_raises(self):
        session = EditorSession(backend=_ScriptedBackend())
        session.type_text("- name: Install nginx")
        session.press_enter()
        with pytest.raises(ServingError):
            session.press("ctrl-z")

    def test_an_unknown_key_keeps_the_suggestion_pending(self):
        session = EditorSession(backend=_ScriptedBackend(completion="  apt: {name: nginx}"))
        session.type_text("- name: Install nginx")
        suggestion = session.press_enter()
        with pytest.raises(ServingError):
            session.press("x")
        assert session.press(TAB).endswith(suggestion.text + "\n")
        assert (session.accepted, session.rejected) == (1, 0)

    def test_acceptance_rate(self):
        session = EditorSession(backend=_ScriptedBackend())
        assert (session.accepted, session.rejected) == (0, 0)
        for key in (TAB, TAB, ESCAPE, TAB):
            session.type_text("- name: another task")
            session.press_enter()
            session.press(key)
        assert (session.accepted, session.rejected) == (3, 1)


class TestAgainstRealService:
    def test_session_round_trip_through_prediction_service(self, make_engine):
        service = PredictionService(make_engine(), max_new_tokens=8)
        session = EditorSession(backend=service)
        session.type_text("- name: Start SSH server")
        first = session.press_enter()
        assert first.cached is False and first.reused_tokens == 0
        session.press(TAB)
        assert session.buffer.startswith("- name: Start SSH server\n" + first.text)
        # Identical context in a second editor: a session of its own, the
        # same greedy suggestion.
        replay = EditorSession(backend=service)
        replay.type_text("- name: Start SSH server")
        assert replay.press_enter().text == first.text
        assert replay.session_id != session.session_id
        session.close()
        replay.close()
        assert service.sessions.count == 0


@pytest.mark.streaming
class TestSessionBackedPlugin:
    """The keystroke flow rides server-side sessions: every enter after
    the first extends the warm KV slab instead of re-prefilling the file."""

    @pytest.fixture()
    def editor(self, make_engine):
        # max_new_tokens small enough that plan_prompt never left-truncates
        # the growing buffer (truncation would legitimately shrink the
        # common prefix and force a re-prefill, muddying the regression).
        service = PredictionService(make_engine(), cache_capacity=1, max_new_tokens=12)
        return EditorSession(backend=service), service

    def test_no_reprefill_across_keystroke_extends(self, editor):
        editor, service = editor
        engine = service.engine

        editor.type_text("- name: Install nginx")
        editor.press_enter()
        editor.press(TAB)
        prefill_after_first = engine.batcher.stats()["prefill_tokens"]
        session_after_first = service.sessions.stats()["prefill_tokens"]
        assert prefill_after_first == session_after_first > 0  # sessions are batcher rows

        for step in range(3):
            editor.type_text(f"- name: Task number {step}")
            editor.press_enter()
            editor.press(TAB)

        # The regression surface: stateless keystrokes re-prefill the whole
        # growing buffer every enter (quadratic); sessions prefill only the
        # per-keystroke delta.  The engine-side prefill counter — sessions
        # admit through the batcher like every request — moves by exactly
        # the sum of the per-extend ``prefilled`` deltas, and all three
        # extends together stay BELOW even one re-send of the final buffer.
        final_buffer_tokens = len(engine.tokenizer.encode(editor.buffer))
        extend_prefill = engine.batcher.stats()["prefill_tokens"] - prefill_after_first
        session_stats = service.sessions.stats()
        assert editor.session_id is not None
        assert session_stats["extends"] == 3
        assert editor.reused_tokens > 0
        assert extend_prefill == session_stats["prefill_tokens"] - session_after_first
        assert extend_prefill < final_buffer_tokens
        editor.close()
        assert service.sessions.count == 0

    def test_session_prefill_is_delta_only(self, editor):
        editor, service = editor
        editor.type_text("- name: Install nginx")
        editor.press_enter()
        # Reject the suggestion: the buffer then grows ONLY by what the
        # user types, so BPE prefix-stability holds and the next extend's
        # prefill must be just the typed delta (± a boundary merge).
        editor.press(ESCAPE)
        before = service.sessions.stats()["prefill_tokens"]
        keystroke = "- name: One more"
        editor.type_text(keystroke)
        editor.press_enter()
        after = service.sessions.stats()["prefill_tokens"]
        engine = service.engine
        whole_buffer = len(engine.tokenizer.encode(editor.buffer))
        typed_delta = len(engine.tokenizer.encode(keystroke + "\n"))
        # the extend prefilled roughly the typed delta, not the whole file
        assert after - before < whole_buffer
        assert after - before <= typed_delta + 4  # BPE boundary slack

    def test_lost_session_degrades_to_fresh_create(self, editor):
        editor, service = editor
        editor.type_text("- name: Install nginx")
        editor.press_enter()
        editor.press(TAB)
        lost_id = editor.session_id
        service.sessions.close_all()  # server evicted / restarted
        editor.type_text("- name: Another")
        editor.press_enter()  # must not raise
        assert editor.session_id is not None
        assert editor.session_id != lost_id
        assert service.sessions.stats()["created"] == 2
