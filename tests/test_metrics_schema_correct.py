"""Tests for repro.metrics.schema_correct — the paper's novel metric #2."""

from __future__ import annotations

from repro.metrics.report import EvalReport
from repro.metrics.schema_correct import is_schema_correct, schema_violations

GOOD = "- name: t\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n"
HISTORICAL = "- name: t\n  apt: name=nginx state=present\n"
INVALID_YAML = "- name: t\n  apt: {unclosed\n"
UNKNOWN_MODULE = "- name: t\n  frobnicate:\n    x: 1\n"


class TestIsSchemaCorrect:
    def test_good(self):
        assert is_schema_correct(GOOD)

    def test_invalid_yaml(self):
        assert not is_schema_correct(INVALID_YAML)

    def test_unknown_module(self):
        assert not is_schema_correct(UNKNOWN_MODULE)

    def test_historical_form_strict_fails_lenient_passes(self):
        assert not is_schema_correct(HISTORICAL)
        assert is_schema_correct(HISTORICAL, level="lenient")

    def test_bare_task_mapping(self):
        # A body without the leading dash parses as a dict: still validated.
        assert is_schema_correct("ansible.builtin.apt:\n  name: nginx\n  state: present\n")

    def test_playbook(self, fig1_text):
        assert is_schema_correct(fig1_text)


class TestSchemaViolations:
    def test_none_for_invalid_yaml(self):
        assert schema_violations(INVALID_YAML) is None

    def test_empty_for_good(self):
        assert schema_violations(GOOD) == []

    def test_rule_ids_reported(self):
        violations = schema_violations(UNKNOWN_MODULE)
        assert any(violation.rule == "module-unknown" for violation in violations)


class TestRate:
    def test_rate(self):
        report = EvalReport("m")
        report.add(GOOD, GOOD)
        report.add(GOOD, INVALID_YAML)
        assert report.schema_correct == 50.0

    def test_empty(self):
        assert EvalReport("m").schema_correct == 0.0

    def test_paper_caveat_em_perfect_schema_zero(self):
        """A perfect-EM prediction may still be schema-incorrect (the paper's
        explicit caveat about unfiltered training data)."""
        reference = HISTORICAL
        prediction = HISTORICAL
        from repro.metrics.exact_match import exact_match

        assert exact_match(reference, prediction)
        assert not is_schema_correct(prediction)
