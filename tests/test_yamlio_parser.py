"""Tests for repro.yamlio.parser."""

from __future__ import annotations

import pytest
import yaml as pyyaml

from repro import yamlio
from repro.errors import ReproError, YamlParseError


def both(text: str):
    """Parse with our engine and PyYAML; assert agreement; return value."""
    ours = yamlio.loads(text)
    theirs = pyyaml.safe_load(text)
    assert ours == theirs, f"engine={ours!r} pyyaml={theirs!r}"
    return ours


class TestMappings:
    def test_flat(self):
        assert both("a: 1\nb: two\n") == {"a": 1, "b": "two"}

    def test_nested(self):
        assert both("a:\n  b:\n    c: 3\n") == {"a": {"b": {"c": 3}}}

    def test_null_value(self):
        assert both("a:\nb: 1\n") == {"a": None, "b": 1}

    def test_quoted_keys(self):
        assert both("'a: b': 1\n\"c\": 2\n") == {"a: b": 1, "c": 2}

    def test_integer_key(self):
        assert both("80: http\n") == {80: "http"}

    def test_duplicate_key_rejected(self):
        # stricter than PyYAML, which silently overrides
        with pytest.raises(YamlParseError):
            yamlio.loads("a: 1\na: 2\n")

    def test_quoted_values(self):
        assert both("a: 'x: y'\nb: \"z # w\"\n") == {"a": "x: y", "b": "z # w"}


class TestSequences:
    def test_flat(self):
        assert both("- 1\n- two\n") == [1, "two"]

    def test_nested_via_indent(self):
        assert both("-\n  - 1\n  - 2\n- 3\n") == [[1, 2], 3]

    def test_compact_nested(self):
        assert both("- - 1\n  - 2\n") == [[1, 2]]

    def test_compact_mapping_item(self):
        assert both("- name: x\n  state: present\n") == [{"name": "x", "state": "present"}]

    def test_sequence_under_key_same_indent(self):
        assert both("tasks:\n- a\n- b\n") == {"tasks": ["a", "b"]}

    def test_sequence_under_key_indented(self):
        assert both("tasks:\n  - a\n  - b\n") == {"tasks": ["a", "b"]}

    def test_null_item(self):
        assert both("- \n- 1\n") == [None, 1]


class TestFlowInBlock:
    def test_flow_sequence_value(self):
        assert both("groups: [wheel, docker]\n") == {"groups": ["wheel", "docker"]}

    def test_flow_mapping_value(self):
        assert both("args: {chdir: /tmp, creates: /tmp/x}\n") == {
            "args": {"chdir": "/tmp", "creates": "/tmp/x"}
        }

    def test_flow_item_in_sequence(self):
        assert both("- [1, 2]\n- {a: 1}\n") == [[1, 2], {"a": 1}]


class TestLiteralBlocks:
    def test_literal_clip(self):
        assert both("msg: |\n  line one\n  line two\n") == {"msg": "line one\nline two\n"}

    def test_literal_strip(self):
        assert both("msg: |-\n  a\n  b\n") == {"msg": "a\nb"}

    def test_literal_keep(self):
        assert both("msg: |+\n  a\n\nnext: 1\n") == {"msg": "a\n\n", "next": 1}

    def test_folded(self):
        assert both("msg: >\n  a\n  b\n") == {"msg": "a b\n"}

    def test_folded_paragraphs(self):
        assert both("msg: >-\n  a\n  b\n\n  c\n") == {"msg": "a b\nc"}

    def test_literal_preserves_deeper_indent(self):
        assert both("msg: |\n  def f():\n      return 1\n") == {"msg": "def f():\n    return 1\n"}

    def test_literal_interior_blank_line(self):
        assert both("msg: |\n  a\n\n  b\n") == {"msg": "a\n\nb\n"}

    def test_literal_in_sequence_item(self):
        assert both("- |\n  content\n- 2\n") == ["content\n", 2]

    def test_explicit_indentation_indicator(self):
        assert both("msg: |2\n    indented\n") == {"msg": "  indented\n"}

    def test_keys_after_literal(self):
        assert both("a: |\n  x\nb: 2\n") == {"a": "x\n", "b": 2}


class TestDocuments:
    def test_leading_marker(self):
        assert both("---\na: 1\n") == {"a": 1}

    def test_multi_document(self):
        docs = yamlio.parse_all("---\na: 1\n---\nb: 2\n")
        assert docs == [{"a": 1}, {"b": 2}]

    def test_end_marker(self):
        docs = yamlio.parse_all("a: 1\n...\n")
        assert docs == [{"a": 1}]

    def test_loads_rejects_multi_document(self):
        with pytest.raises(YamlParseError):
            yamlio.loads("---\na: 1\n---\nb: 2\n")

    def test_empty_document(self):
        assert yamlio.loads("") is None


class TestUnsupportedFeatures:
    @pytest.mark.parametrize("text", ["a: &anchor 1\n", "a: *alias\n", "<<: *defaults\n"])
    def test_rejected(self, text):
        with pytest.raises(YamlParseError):
            yamlio.loads(text)

    def test_is_valid_false(self):
        assert not yamlio.is_valid("a: &x 1\nb: *x\n")


class TestErrors:
    def test_orphan_indent(self):
        with pytest.raises(YamlParseError):
            yamlio.loads("a: 1\n    dangling\n")

    def test_scalar_then_content(self):
        with pytest.raises(YamlParseError):
            yamlio.loads("scalar\nmore: 1\n")

    def test_unterminated_quote_value(self):
        with pytest.raises(yamlio.YamlError):
            yamlio.loads("a: 'open\n")

    def test_yaml_error_hierarchy(self):
        """Every YAML failure is catchable as both YamlError and ReproError."""
        with pytest.raises(yamlio.YamlError):
            yamlio.loads("a: [unclosed")
        with pytest.raises(ReproError):
            yamlio.loads("a: &anchor 1")

    def test_error_carries_line_number(self):
        try:
            yamlio.loads("a: 1\na: 2\n")
        except YamlParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected YamlParseError")


class TestAnsibleShapedDocuments:
    def test_fig1(self, fig1_text):
        assert both(fig1_text)

    def test_task_with_when_expression(self):
        text = (
            "- name: Conditional\n"
            "  ansible.builtin.debug:\n"
            "    msg: hi\n"
            "  when: ansible_os_family == 'Debian'\n"
        )
        assert both(text)[0]["when"] == "ansible_os_family == 'Debian'"

    def test_jinja_templates_kept_verbatim(self):
        text = "- name: t\n  ansible.builtin.apt:\n    name: '{{ item }}'\n  loop: [a, b]\n"
        assert both(text)[0]["ansible.builtin.apt"]["name"] == "{{ item }}"
