"""Tests for repro.ansible.keywords."""

from __future__ import annotations

from repro.ansible.keywords import (
    BLOCK_KEYS,
    LOOP_KEYWORDS,
    PLAY_KEYWORDS,
    PLAY_TASK_SECTIONS,
    TASK_KEYWORDS,
    looks_like_play,
)


class TestKeywordTables:
    def test_core_play_keywords_present(self):
        for keyword in ("hosts", "tasks", "vars", "become", "gather_facts", "roles", "handlers"):
            assert keyword in PLAY_KEYWORDS

    def test_core_task_keywords_present(self):
        for keyword in ("name", "when", "loop", "register", "become", "notify", "tags"):
            assert keyword in TASK_KEYWORDS

    def test_module_names_are_not_keywords(self):
        for module in ("apt", "ansible.builtin.copy", "service", "debug"):
            assert module not in TASK_KEYWORDS
            assert module not in PLAY_KEYWORDS

    def test_task_sections_are_play_keywords(self):
        assert set(PLAY_TASK_SECTIONS) <= PLAY_KEYWORDS

    def test_block_keys(self):
        assert BLOCK_KEYS == {"block", "rescue", "always"}

    def test_loop_keywords_cover_legacy_forms(self):
        assert "loop" in LOOP_KEYWORDS
        assert "with_items" in LOOP_KEYWORDS
        assert all(k.startswith("with_") or k == "loop" for k in LOOP_KEYWORDS)

    def test_hosts_is_not_a_task_keyword(self):
        assert "hosts" not in TASK_KEYWORDS


class TestLooksLikePlay:
    def test_hosts_makes_play(self):
        assert looks_like_play({"hosts": "all"})

    def test_task_mapping_is_not_play(self):
        assert not looks_like_play({"name": "t", "ansible.builtin.apt": {"name": "x"}})

    def test_non_dict(self):
        assert not looks_like_play([1, 2])

    def test_tasks_section_with_only_play_keys(self):
        assert looks_like_play({"name": "p", "tasks": []})

    def test_tasks_key_with_module_key_is_not_play(self):
        # e.g. a task with a weird extra key should not be classified as play
        assert not looks_like_play({"tasks": [], "ansible.builtin.apt": None})
