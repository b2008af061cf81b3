"""Tests for repro.ansible.schema (the Schema Correct validator)."""

from __future__ import annotations

import pytest

from repro import yamlio
from repro.ansible import schema


def rules(violations):
    return {violation.rule for violation in violations}


GOOD_TASK = {
    "name": "Install nginx",
    "ansible.builtin.apt": {"name": "nginx", "state": "present"},
    "become": True,
}


class TestDocumentShape:
    def test_fig1_valid(self, fig1_text):
        assert schema.validate(yamlio.loads(fig1_text)) == []

    def test_non_list_document(self):
        assert "document-not-list" in rules(schema.validate({"a": 1}))

    def test_empty_document(self):
        assert "document-empty" in rules(schema.validate([]))

    def test_scalar_entries(self):
        assert "entry-not-mapping" in rules(schema.validate([1]))

    def test_mixed_plays_and_tasks(self):
        assert "mixed-plays-and-tasks" in rules(
            schema.validate([{"hosts": "all"}, GOOD_TASK])
        )


class TestPlayRules:
    def test_missing_hosts(self):
        assert "play-missing-hosts" in rules(schema.validate([{"name": "p", "tasks": [GOOD_TASK]}]))

    def test_unknown_play_keyword(self):
        violations = schema.validate([{"hosts": "all", "bogus_directive": 1, "tasks": [GOOD_TASK]}])
        assert "play-unknown-keyword" in rules(violations)

    def test_section_not_list(self):
        assert "section-not-list" in rules(schema.validate([{"hosts": "all", "tasks": "x"}]))

    def test_roles_validation(self):
        good = schema.validate([{"hosts": "all", "roles": ["common", {"role": "web"}]}])
        assert good == []
        bad = schema.validate([{"hosts": "all", "roles": [{"vars": {}}]}])
        assert "role-missing-name" in rules(bad)

    def test_gather_facts_type(self):
        assert "keyword-type" in rules(
            schema.validate([{"hosts": "all", "gather_facts": "sure", "tasks": [GOOD_TASK]}])
        )


class TestTaskRules:
    def test_good_task(self):
        assert schema.validate_task(GOOD_TASK) == []

    def test_unknown_module(self):
        assert "module-unknown" in rules(schema.validate_task({"name": "t", "frobnicate": {}}))

    def test_multiple_modules(self):
        assert "task-multiple-modules" in rules(schema.validate_task({"apt": None, "yum": None}))

    def test_missing_module(self):
        assert "task-missing-module" in rules(schema.validate_task({"name": "only a name"}))

    def test_name_type(self):
        assert "name-type" in rules(schema.validate_task({"name": 3, "ansible.builtin.debug": {"msg": "x"}}))

    def test_register_shape(self):
        bad = schema.validate_task({"ansible.builtin.stat": {"path": "/x"}, "register": "not valid!"})
        assert "register-invalid" in rules(bad)

    def test_boolean_keyword_type(self):
        bad = schema.validate_task({"ansible.builtin.debug": {"msg": "x"}, "become": "sudo"})
        assert "keyword-type" in rules(bad)

    def test_templated_keyword_allowed(self):
        ok = schema.validate_task({"ansible.builtin.debug": {"msg": "x"}, "become": "{{ use_become }}"})
        assert "keyword-type" not in rules(ok)

    def test_retries_type(self):
        bad = schema.validate_task({"ansible.builtin.debug": {"msg": "x"}, "retries": "three"})
        assert "keyword-type" in rules(bad)


class TestArgRules:
    def test_unknown_option_strict_only(self):
        task = {"ansible.builtin.apt": {"name": "x", "bogus_option": 1}}
        assert "args-unknown-option" in rules(schema.validate_task(task, schema.STRICT))
        assert "args-unknown-option" not in rules(schema.validate_task(task, schema.LENIENT))

    def test_bad_choice(self):
        task = {"ansible.builtin.apt": {"name": "x", "state": "sideways"}}
        assert "args-bad-choice" in rules(schema.validate_task(task))

    def test_alias_accepted(self):
        task = {"ansible.builtin.apt": {"pkg": "x", "state": "present"}}
        assert schema.validate_task(task) == []

    def test_missing_required_strict(self):
        task = {"ansible.builtin.copy": {"src": "a"}}  # dest required
        assert "args-missing-required" in rules(schema.validate_task(task, schema.STRICT))
        assert "args-missing-required" not in rules(schema.validate_task(task, schema.LENIENT))

    def test_bool_type(self):
        task = {"ansible.builtin.apt": {"name": "x", "update_cache": "maybe"}}
        assert "args-bad-type" in rules(schema.validate_task(task))

    def test_template_value_escapes_type_checks(self):
        task = {"ansible.builtin.apt": {"name": "x", "update_cache": "{{ cache }}"}}
        assert "args-bad-type" not in rules(schema.validate_task(task))

    def test_bool_choice_yaml11(self):
        # state choices on seboolean include booleans resolved by YAML
        task = {"ansible.builtin.seboolean": {"name": "httpd_can_network_connect", "state": True, "persistent": True}}
        assert schema.validate_task(task) == []


class TestHistoricalForms:
    """The paper: the linter schema rejects historical forms Ansible accepts."""

    def test_kv_args_strict_rejected_lenient_ok(self):
        task = {"name": "t", "apt": "name=nginx state=present"}
        assert "historical-kv-args" in rules(schema.validate_task(task, schema.STRICT))
        assert schema.validate_task(task, schema.LENIENT) == []

    def test_free_form_string_always_ok(self):
        task = {"name": "t", "ansible.builtin.shell": "echo hi"}
        assert schema.validate_task(task, schema.STRICT) == []

    def test_string_args_on_non_free_form(self):
        task = {"name": "t", "ansible.builtin.service": "restart it"}
        assert "args-not-mapping" in rules(schema.validate_task(task))

    def test_with_items_strict_flagged(self):
        task = {"ansible.builtin.apt": {"name": "{{ item }}"}, "with_items": ["a", "b"]}
        assert "deprecated-with-loop" in rules(schema.validate_task(task, schema.STRICT))
        assert schema.validate_task(task, schema.LENIENT) == []

    def test_perfect_em_zero_schema_possible(self):
        """The paper's caveat: training data is unfiltered, so ground truth
        can be schema-incorrect while being a perfect exact match."""
        text = "- name: t\n  apt: name=nginx state=present\n"
        data = yamlio.loads(text)
        assert schema.validate(data, schema.LENIENT) == []
        assert schema.validate(data, schema.STRICT) != []


class TestBlocks:
    def test_valid_block(self):
        block = {
            "block": [GOOD_TASK],
            "rescue": [{"ansible.builtin.debug": {"msg": "failed"}}],
            "when": "go",
        }
        assert schema.validate_task(block) == []

    def test_rescue_without_block(self):
        assert "block-missing-block" in rules(schema.validate_task({"rescue": [GOOD_TASK]}))

    def test_unknown_block_keyword(self):
        assert "block-unknown-keyword" in rules(
            schema.validate_task({"block": [GOOD_TASK], "frobnicate": 1})
        )

    def test_block_inside_play(self):
        play = [{"hosts": "all", "tasks": [{"block": [GOOD_TASK]}]}]
        assert schema.validate(play) == []

    def test_block_task_list_survives_a_yaml_round_trip_valid(self):
        # the canonical error-handling idiom: a task, then a block whose
        # rescue reports the failure and whose always section records it
        tasks = [
            GOOD_TASK,
            {
                "name": "Apply web server steps",
                "block": [
                    GOOD_TASK,
                    {"name": "Start nginx", "ansible.builtin.service": {"name": "nginx", "state": "started"}},
                ],
                "rescue": [
                    {
                        "name": "Report failure",
                        "ansible.builtin.debug": {"msg": "web failed on {{ inventory_hostname }}"},
                    }
                ],
                "always": [
                    {"name": "Record completion time", "ansible.builtin.set_fact": {"last_run": "{{ now() }}"}}
                ],
            },
        ]
        data = yamlio.loads(yamlio.dumps(tasks))
        assert data == tasks
        assert schema.validate(data) == []


class TestIsSchemaCorrect:
    def test_predicate(self, fig1_text):
        assert schema.is_schema_correct(yamlio.loads(fig1_text))
        assert not schema.is_schema_correct([{"frobnicate": {}}])

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            schema.validate([], level="fuzzy")
