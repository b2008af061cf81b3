"""Tests for repro.metrics.ansible_aware — the paper's novel metric #1."""

from __future__ import annotations

import pytest

from repro.metrics.ansible_aware import ansible_aware, snippet_score, task_score
from repro.metrics.report import EvalReport

REF_TASK = """- name: Install nginx
  ansible.builtin.apt:
    name: nginx
    state: present
  become: true
"""


class TestTaskScoring:
    def test_identity(self):
        assert ansible_aware(REF_TASK, REF_TASK) == 100.0

    def test_name_ignored(self):
        renamed = REF_TASK.replace("Install nginx", "totally different words")
        assert ansible_aware(REF_TASK, renamed) == 100.0

    def test_key_order_insensitive(self):
        reordered = """- become: true
  ansible.builtin.apt:
    state: present
    name: nginx
  name: Install nginx
"""
        assert ansible_aware(REF_TASK, reordered) == 100.0

    def test_fqcn_normalization(self):
        short = REF_TASK.replace("ansible.builtin.apt", "apt")
        assert ansible_aware(REF_TASK, short) == 100.0
        assert ansible_aware(short, REF_TASK) == 100.0

    def test_kv_normalization(self):
        kv = "- name: x\n  apt: name=nginx state=present\n  become: yes\n"
        assert ansible_aware(REF_TASK, kv) == 100.0

    def test_insertions_ignored(self):
        extra = REF_TASK + "  register: install_result\n"
        assert ansible_aware(REF_TASK, extra) == 100.0

    def test_insertion_penalty_option(self):
        extra = REF_TASK + "  register: install_result\n"
        assert ansible_aware(REF_TASK, extra, insertion_penalty=0.1) == pytest.approx(90.0)

    def test_missing_keyword_scores_zero_for_that_pair(self):
        missing = """- name: Install nginx
  ansible.builtin.apt:
    name: nginx
    state: present
"""
        # two scored pairs (module, become): module 1.0, become 0.0
        assert ansible_aware(REF_TASK, missing) == pytest.approx(50.0)

    def test_wrong_scalar_value_half_credit_on_pair(self):
        wrong = REF_TASK.replace("become: true", "become: false")
        # module pair 1.0; become pair 0.5 (key found, value wrong)
        assert ansible_aware(REF_TASK, wrong) == pytest.approx(75.0)

    def test_unparseable_prediction_zero(self):
        assert ansible_aware(REF_TASK, "]] not yaml [[") == 0.0

    def test_unrelated_module_zero(self):
        other = "- name: x\n  ansible.builtin.debug:\n    msg: hi\n  become: true\n"
        # module pair 0.0, become pair 1.0 -> 50
        assert ansible_aware(REF_TASK, other) == pytest.approx(50.0)


class TestModuleEquivalence:
    def test_equivalent_module_partial_credit(self):
        """package/apt: 0.5 module-key credit averaged with the args score."""
        yum = REF_TASK.replace("ansible.builtin.apt", "ansible.builtin.yum")
        # module pair: (0.5 + 1.0 args)/2 = 0.75; become: 1.0 -> 87.5
        assert ansible_aware(REF_TASK, yum) == pytest.approx(87.5)

    def test_copy_template_partial(self):
        ref = "- name: c\n  ansible.builtin.copy:\n    src: a\n    dest: b\n"
        pred = "- name: c\n  ansible.builtin.template:\n    src: a\n    dest: b\n"
        assert ansible_aware(ref, pred) == pytest.approx(75.0)


class TestNestedValues:
    def test_list_value_positional(self):
        ref = "- name: l\n  vyos.vyos.vyos_config:\n    lines:\n      - set a\n      - set b\n"
        pred = "- name: l\n  vyos.vyos.vyos_config:\n    lines:\n      - set a\n      - set WRONG\n"
        # args score: lines pair = 0.5 + 0.5*(avg over items: 1, 0) = 0.75
        # module pair = (1 + 0.75)/2 = 0.875
        assert ansible_aware(ref, pred) == pytest.approx(87.5)

    def test_missing_list_items_penalized(self):
        ref = "- name: l\n  ansible.builtin.apt:\n    name:\n      - a\n      - b\n"
        pred = "- name: l\n  ansible.builtin.apt:\n    name:\n      - a\n"
        score = ansible_aware(ref, pred)
        assert 0.0 < score < 100.0

    def test_dict_recursion(self):
        ref = "- name: d\n  ansible.builtin.uri:\n    url: http://x\n    headers:\n      Accept: json\n      X-Id: '1'\n"
        pred = "- name: d\n  ansible.builtin.uri:\n    url: http://x\n    headers:\n      Accept: json\n"
        score = ansible_aware(ref, pred)
        assert 50.0 < score < 100.0


class TestPlaybookScoring:
    def test_playbook_identity(self, fig1_text):
        assert ansible_aware(fig1_text, fig1_text) == 100.0

    def test_playbook_wrong_hosts(self, fig1_text):
        wrong = fig1_text.replace("hosts: servers", "hosts: all")
        score = ansible_aware(fig1_text, wrong)
        assert 50.0 < score < 100.0

    def test_playbook_missing_task(self, fig1_text):
        truncated = fig1_text.split("    - name: Start SSH server")[0]
        score = ansible_aware(fig1_text, truncated)
        assert 0.0 < score < 100.0

    def test_task_list_vs_playbook_mismatch(self, fig1_text):
        assert ansible_aware(fig1_text, REF_TASK) < 100.0


class TestHelpers:
    def test_task_score_non_dict_prediction(self):
        assert task_score({"apt": {"name": "x"}}, "not a dict") == 0.0

    def test_snippet_score_empty_target_list(self):
        assert snippet_score([], []) == 1.0

    def test_average(self):
        report = EvalReport("m")
        report.add(REF_TASK, REF_TASK)
        report.add(REF_TASK, "]bad[")
        assert report.ansible_aware == pytest.approx(50.0)

    def test_name_only_task_scores_full(self):
        assert ansible_aware("- name: only\n", "- name: whatever\n") == 100.0
