"""Tests for repro.dataset.synthesis (synthetic Ansible generator)."""

from __future__ import annotations

import pytest

from repro import ansible, yamlio
from repro.dataset.synthesis import (
    AnsibleSynthesizer,
    GALAXY_STYLE,
    GITHUB_STYLE,
    SCENARIOS,
    StyleProfile,
    TaskDraft,
)
from repro.utils.rng import SeededRng


@pytest.fixture()
def synthesizer():
    return AnsibleSynthesizer(SeededRng(5), GALAXY_STYLE)


class TestTaskDraft:
    def test_to_data_order(self):
        draft = TaskDraft("t", "ansible.builtin.apt", {"name": "x"}, {"become": True})
        data = draft.to_data(SeededRng(0), GALAXY_STYLE)
        assert list(data)[0] == "name"
        assert "ansible.builtin.apt" in data or "apt" in data

    def test_kv_style_applied(self):
        style = StyleProfile(kv_args_probability=1.0, fqcn_probability=1.0)
        draft = TaskDraft("t", "ansible.builtin.apt", {"name": "x", "state": "present"})
        data = draft.to_data(SeededRng(0), style)
        assert isinstance(data["ansible.builtin.apt"], str)
        assert "name=x" in data["ansible.builtin.apt"]

    def test_short_name_style(self):
        style = StyleProfile(fqcn_probability=0.0)
        draft = TaskDraft("t", "ansible.builtin.apt", {"name": "x"})
        data = draft.to_data(SeededRng(0), style)
        assert "apt" in data

    def test_legacy_loop_style(self):
        style = StyleProfile(legacy_loop_probability=1.0, kv_args_probability=0.0)
        draft = TaskDraft("t", "ansible.builtin.apt", {"name": "{{ item }}"}, {"loop": ["a"]})
        data = draft.to_data(SeededRng(0), style)
        assert "with_items" in data and "loop" not in data


class TestGeneratedContent:
    def test_task_list_kind(self, synthesizer):
        generated = synthesizer.task_list(n_tasks=4)
        assert generated.kind == "tasks"
        assert 1 <= len(generated.data) <= 4

    def test_playbook_single_play(self, synthesizer):
        generated = synthesizer.playbook(n_tasks=2)
        assert generated.kind == "playbook"
        assert len(generated.data) == 1
        play = generated.data[0]
        assert "hosts" in play and "tasks" in play and "name" in play

    def test_every_task_has_a_name(self, synthesizer):
        for _ in range(20):
            generated = synthesizer.file()
            tasks = generated.data if generated.kind == "tasks" else generated.data[0]["tasks"]
            for task in tasks:
                assert isinstance(task.get("name"), str) and task["name"]

    def test_all_modules_known(self, synthesizer):
        for _ in range(30):
            generated = synthesizer.file()
            tasks = generated.data if generated.kind == "tasks" else generated.data[0]["tasks"]
            for task in tasks:
                parsed = ansible.Task.from_data(task)
                assert ansible.get_module(parsed.module) is not None, parsed.module

    def test_emitted_yaml_valid(self, synthesizer):
        for _ in range(20):
            generated = synthesizer.file()
            text = yamlio.dumps(generated.data)
            assert yamlio.is_valid(text)
            assert ansible.classify_snippet(yamlio.loads(text)) == generated.kind

    def test_scenario_names_valid(self, synthesizer):
        for _ in range(20):
            assert synthesizer.file().scenario in SCENARIOS

    def test_network_playbook_shape(self):
        synthesizer = AnsibleSynthesizer(SeededRng(2))
        generated = synthesizer.playbook(n_tasks=2, scenario="network_config")
        play = generated.data[0]
        assert play["connection"] == "ansible.netcommon.network_cli"
        assert play["gather_facts"] is False

    def test_determinism(self):
        a = AnsibleSynthesizer(SeededRng(3)).file()
        b = AnsibleSynthesizer(SeededRng(3)).file()
        assert a.data == b.data and a.scenario == b.scenario

    def test_github_style_noisier_than_galaxy(self):
        def schema_rate(style):
            synthesizer = AnsibleSynthesizer(SeededRng(10), style)
            good = 0
            for _ in range(80):
                generated = synthesizer.file()
                good += ansible.is_schema_correct(generated.data)
            return good / 80

        assert schema_rate(GITHUB_STYLE) < schema_rate(GALAXY_STYLE)

    def test_become_consistent_within_file(self, synthesizer):
        """File-level style: privileged tasks in one file either all use
        become or none do."""
        from repro.ansible.modules import get_module

        for _ in range(30):
            generated = synthesizer.task_list(n_tasks=6)
            privileged_flags = []
            for task in generated.data:
                parsed = ansible.Task.from_data(task)
                spec = get_module(parsed.module)
                if spec and spec.category in ("packaging", "services", "system"):
                    privileged_flags.append(bool(parsed.keywords.get("become")))
            assert len(set(privileged_flags)) <= 1
