"""Tests for repro.yamlio.emitter."""

from __future__ import annotations

import pytest

from repro import yamlio
from repro.errors import YamlEmitError
from repro.yamlio.emitter import EmitStyle


class TestEmitBasics:
    def test_scalar_document(self):
        assert yamlio.dumps(3) == "---\n3\n"

    def test_mapping(self):
        assert yamlio.dumps({"a": 1, "b": "x"}) == "---\na: 1\nb: x\n"

    def test_no_marker(self):
        style = EmitStyle(start_marker=False)
        assert yamlio.dumps({"a": 1}, style) == "a: 1\n"

    def test_empty_collections_flow(self):
        assert yamlio.dumps({"a": [], "b": {}}) == "---\na: []\nb: {}\n"

    def test_sequence_item_indent(self):
        out = yamlio.dumps({"tasks": [{"name": "x"}]}, EmitStyle(start_marker=False))
        assert out == "tasks:\n  - name: x\n"

    def test_nested_mapping_indent(self):
        out = yamlio.dumps({"a": {"b": {"c": 1}}}, EmitStyle(start_marker=False))
        assert out == "a:\n  b:\n    c: 1\n"

    def test_string_needing_quotes(self):
        out = yamlio.dumps({"a": "yes"}, EmitStyle(start_marker=False))
        assert out == "a: 'yes'\n"

    def test_multiline_string_literal_block(self):
        out = yamlio.dumps({"msg": "a\nb\n"}, EmitStyle(start_marker=False))
        assert out == "msg: |\n  a\n  b\n"

    def test_multiline_no_trailing_newline(self):
        out = yamlio.dumps({"msg": "a\nb"}, EmitStyle(start_marker=False))
        assert out == "msg: |-\n  a\n  b\n"

    def test_unsupported_type_rejected(self):
        with pytest.raises(YamlEmitError):
            yamlio.dumps({"a": object()})

    def test_unsupported_key_rejected(self):
        with pytest.raises(YamlEmitError):
            yamlio.dumps({(1, 2): "x"})

    def test_emit_all(self):
        out = "".join(yamlio.dumps(document) for document in [{"a": 1}, {"b": 2}])
        assert out == "---\na: 1\n---\nb: 2\n"


class TestStyleValidation:
    def test_bad_indent(self):
        with pytest.raises(ValueError):
            EmitStyle(indent=0)

    def test_bad_sequence_indent(self):
        with pytest.raises(ValueError):
            EmitStyle(sequence_indent=-1)


class TestRoundTrips:
    CASES = [
        {"a": 1, "b": [1, 2, {"c": True}]},
        [{"name": "t", "ansible.builtin.apt": {"name": "nginx", "state": "present"}}],
        {"deep": {"list": [[1, 2], [3]], "map": {"x": None}}},
        {"msg": "line1\nline2\n", "other": 3},
        {"mode": "0644", "count": 420, "flag": False},
        [],
        {},
        "plain string",
        [None, True, 1.5],
    ]

    @pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
    def test_parse_emit_roundtrip(self, value):
        assert yamlio.loads(yamlio.dumps(value)) == value

    @pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
    def test_pyyaml_can_read_our_output(self, value):
        import yaml as pyyaml

        assert pyyaml.safe_load(yamlio.dumps(value)) == value


class TestNormalize:
    def test_normalize_canonicalizes_style(self):
        messy = "a:   1\nb:\n    - x\n    - y\n"
        assert yamlio.dumps(yamlio.loads(messy)) == "---\na: 1\nb:\n  - x\n  - y\n"

    def test_normalize_idempotent(self, fig1_text):
        once = yamlio.dumps(yamlio.loads(fig1_text))
        assert yamlio.dumps(yamlio.loads(once)) == once
