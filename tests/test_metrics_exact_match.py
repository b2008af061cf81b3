"""Tests for repro.metrics.exact_match."""

from __future__ import annotations

from repro import yamlio
from repro.errors import YamlError
from repro.metrics.exact_match import exact_match, normalize_text
from repro.metrics.report import EvalReport


def canonical_exact_match(reference: str, prediction: str) -> bool:
    """Equality of the parsed YAML value graphs: formatting-insensitive.
    Unparseable text only matches textually."""
    if exact_match(reference, prediction):
        return True
    try:
        return yamlio.parse_all(reference) == yamlio.parse_all(prediction)
    except YamlError:
        return False


class TestNormalizeText:
    def test_trailing_spaces_stripped(self):
        assert normalize_text("a  \nb\t\n") == "a\nb"

    def test_surrounding_blank_lines_stripped(self):
        assert normalize_text("\n\na\n\n") == "a"

    def test_crlf(self):
        assert normalize_text("a\r\nb") == "a\nb"

    def test_interior_blank_lines_kept(self):
        assert normalize_text("a\n\nb") == "a\n\nb"


class TestExactMatch:
    def test_identical(self):
        assert exact_match("- a: 1\n", "- a: 1\n")

    def test_whitespace_insensitive_at_edges(self):
        assert exact_match("- a: 1", "- a: 1  \n\n")

    def test_indentation_differences_matter(self):
        assert not exact_match("a:\n  b: 1\n", "a:\n    b: 1\n")

    def test_content_difference(self):
        assert not exact_match("a: 1", "a: 2")


class TestCanonicalExactMatch:
    def test_formatting_insensitive(self):
        assert canonical_exact_match("a:   1\n", "a: 1\n")

    def test_quoting_insensitive(self):
        assert canonical_exact_match("a: 'x'\n", "a: x\n")

    def test_unparseable_prediction(self):
        assert not canonical_exact_match("a: 1\n", "a: [unclosed\n")

    def test_unparseable_both_textual_fallback(self):
        assert canonical_exact_match("a: [unclosed", "a: [unclosed")

    def test_different_values(self):
        assert not canonical_exact_match("a: 1\n", "a: 2\n")


class TestExactMatchRate:
    def test_rate(self):
        report = EvalReport("m")
        report.add("a", "a")
        report.add("b", "c")
        assert report.exact_match == 50.0

    def test_empty(self):
        assert EvalReport("m").exact_match == 0.0
