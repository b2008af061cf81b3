"""Tests for repro.ansible.model (the structured data model)."""

from __future__ import annotations

import pytest

from repro import yamlio
from repro.ansible.model import (
    Block,
    Play,
    Playbook,
    Task,
    TaskList,
    classify_snippet,
    parse_task_entry,
)
from repro.ansible.kv import parse_kv
from repro.ansible.modules import get_module
from repro.errors import AnsibleError


def normalized_args(task: Task) -> object:
    """Module arguments with legacy ``k=v`` strings parsed into dicts."""
    if isinstance(task.args, str):
        spec = get_module(task.module) if task.module else None
        if spec and spec.free_form:
            return parse_kv(task.args, free_form=True)
        try:
            return parse_kv(task.args, free_form=False)
        except AnsibleError:
            return task.args
    return task.args


TASK = {
    "name": "Install nginx",
    "ansible.builtin.apt": {"name": "nginx", "state": "present"},
    "become": True,
    "when": "ansible_os_family == 'Debian'",
}


class TestTask:
    def test_from_data_splits_fields(self):
        task = Task.from_data(TASK)
        assert task.name == "Install nginx"
        assert task.module == "ansible.builtin.apt"
        assert task.args == {"name": "nginx", "state": "present"}
        assert task.keywords == {"become": True, "when": "ansible_os_family == 'Debian'"}

    def test_to_data_canonical_order(self):
        task = Task.from_data({"become": True, "ansible.builtin.apt": None, "name": "t"})
        assert list(task.to_data()) == ["name", "ansible.builtin.apt", "become"]

    def test_roundtrip_same_content(self):
        task = Task.from_data(TASK)
        assert task.to_data() == TASK

    def test_fqcn_resolution(self):
        task = Task.from_data({"name": "t", "apt": {"name": "x"}})
        assert task.fqcn == "ansible.builtin.apt"

    def test_keyword_only_task(self):
        task = Task.from_data({"name": "t", "when": "x"})
        assert task.module is None
        assert task.fqcn is None

    def test_multiple_module_keys_rejected(self):
        with pytest.raises(AnsibleError):
            Task.from_data({"apt": None, "yum": None})

    def test_non_mapping_rejected(self):
        with pytest.raises(AnsibleError):
            Task.from_data(["not", "a", "task"])

    def test_normalized_args_kv(self):
        task = Task.from_data({"name": "t", "apt": "name=nginx state=present"})
        assert normalized_args(task) == {"name": "nginx", "state": "present"}

    def test_normalized_args_free_form(self):
        task = Task.from_data({"name": "t", "shell": "echo hi chdir=/tmp"})
        assert normalized_args(task) == {"_raw_params": "echo hi", "chdir": "/tmp"}

    def test_normalized_args_dict_passthrough(self):
        task = Task.from_data(TASK)
        assert normalized_args(task) == TASK["ansible.builtin.apt"]


class TestBlock:
    BLOCK = {
        "name": "handle failures",
        "block": [{"name": "try", "ansible.builtin.command": "might_fail"}],
        "rescue": [{"name": "recover", "ansible.builtin.debug": {"msg": "failed"}}],
        "always": [{"name": "cleanup", "ansible.builtin.file": {"path": "/tmp/x", "state": "absent"}}],
        "when": "do_it",
    }

    def test_from_data(self):
        block = Block.from_data(self.BLOCK)
        assert len(block.block) == 1
        assert len(block.rescue) == 1
        assert len(block.always) == 1
        assert block.keywords == {"when": "do_it"}

    def test_flat_tasks_order(self):
        block = Block.from_data(self.BLOCK)
        assert [task.name for task in block.flat_tasks()] == ["try", "recover", "cleanup"]

    def test_roundtrip(self):
        block = Block.from_data(self.BLOCK)
        assert block.to_data() == self.BLOCK

    def test_parse_task_entry_dispatches(self):
        assert isinstance(parse_task_entry(self.BLOCK), Block)
        assert isinstance(parse_task_entry(TASK), Task)

    def test_not_a_block_rejected(self):
        with pytest.raises(AnsibleError):
            Block.from_data({"name": "x"})

    def test_nested_blocks(self):
        nested = {"block": [{"block": [TASK]}]}
        block = Block.from_data(nested)
        assert [task.name for task in block.flat_tasks()] == ["Install nginx"]


class TestPlayAndPlaybook:
    def test_playbook_from_fig1(self, fig1_text):
        playbook = Playbook.from_data(yamlio.loads(fig1_text))
        assert len(playbook.plays) == 1
        play = playbook.plays[0]
        assert play.hosts == "servers"
        assert [task.name for task in play.all_tasks()] == ["Install SSH server", "Start SSH server"]

    def test_playbook_roundtrip(self, fig1_text):
        data = yamlio.loads(fig1_text)
        playbook = Playbook.from_data(data)
        assert playbook.to_data() == data

    def test_play_sections(self):
        play = Play.from_data(
            {
                "hosts": "all",
                "pre_tasks": [TASK],
                "tasks": [TASK],
                "handlers": [{"name": "h", "ansible.builtin.service": {"name": "x", "state": "restarted"}}],
            }
        )
        assert len(play.all_tasks()) == 3

    def test_bad_section_type(self):
        with pytest.raises(AnsibleError):
            Play.from_data({"hosts": "all", "tasks": "oops"})

    def test_playbook_requires_list(self):
        with pytest.raises(AnsibleError):
            Playbook.from_data({"hosts": "all"})


class TestTaskList:
    def test_roundtrip(self):
        data = [TASK, {"name": "second", "ansible.builtin.debug": {"msg": "done"}}]
        tasks = TaskList.from_data(data)
        assert tasks.to_data() == data
        assert [task.name for task in tasks.flat_tasks()] == ["Install nginx", "second"]

    def test_requires_list(self):
        with pytest.raises(AnsibleError):
            TaskList.from_data(TASK)

    def test_flat_tasks_enter_blocks(self):
        tasks = TaskList.from_data([TASK, TestBlock.BLOCK])
        assert [task.name for task in tasks.flat_tasks()] == ["Install nginx", "try", "recover", "cleanup"]


class TestClassifySnippet:
    def test_playbook(self, fig1_text):
        assert classify_snippet(yamlio.loads(fig1_text)) == "playbook"

    def test_tasks(self):
        assert classify_snippet([TASK]) == "tasks"

    def test_other_for_mixed(self):
        assert classify_snippet([{"hosts": "all"}, TASK]) == "other"

    def test_other_for_scalars(self):
        assert classify_snippet([1, 2]) == "other"
        assert classify_snippet({"a": 1}) == "other"
        assert classify_snippet([]) == "other"

    def test_corpus_classification_agrees_with_generator(self, galaxy_corpus):
        for document in galaxy_corpus.documents[:40]:
            kind = classify_snippet(yamlio.loads(document.content))
            assert kind == document.kind
