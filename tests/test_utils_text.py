"""Tests for repro.utils.text, and text helpers no library code calls any
more, kept here with their tests."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.utils.text import indent_block, stable_hash


def normalize_newlines(text: str) -> str:
    """Convert CRLF / CR line endings to LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def dedent_block(text: str) -> str:
    """Remove the common leading whitespace of all non-empty lines."""
    lines = text.split("\n")
    margins = [len(line) - len(line.lstrip(" ")) for line in lines if line.strip()]
    if not margins:
        return text
    margin = min(margins)
    return "\n".join(line[margin:] if line.strip() else line for line in lines)


def split_words(text: str) -> list[str]:
    """Simple word tokens: letters, digits, ``_.-``."""
    return re.findall(r"[A-Za-z0-9_.\-]+", text)


def truncate_left(tokens: list[int], limit: int) -> list[int]:
    """Keep the rightmost ``limit`` tokens, as a new list."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    return list(tokens[len(tokens) - limit:]) if len(tokens) > limit else list(tokens)


class TestNormalizeNewlines:
    def test_crlf(self):
        assert normalize_newlines("a\r\nb") == "a\nb"

    def test_bare_cr(self):
        assert normalize_newlines("a\rb") == "a\nb"

    def test_noop_on_lf(self):
        assert normalize_newlines("a\nb") == "a\nb"


class TestIndentDedent:
    def test_indent_skips_blank_lines(self):
        assert indent_block("a\n\nb", 2) == "  a\n\n  b"

    def test_dedent_common_margin(self):
        assert dedent_block("  a\n    b") == "a\n  b"

    def test_dedent_ignores_blank_lines_for_margin(self):
        assert dedent_block("  a\n\n  b") == "a\n\nb"

    def test_dedent_empty(self):
        assert dedent_block("") == ""

    @given(st.text(alphabet="ab \n", max_size=60), st.integers(min_value=1, max_value=6))
    def test_indent_then_dedent_preserves_stripped_lines(self, text, n):
        indented = indent_block(text, n)
        assert [line.strip() for line in indented.split("\n")] == [
            line.strip() for line in text.split("\n")
        ]


class TestTruncateLeft:
    def test_no_truncation_needed(self):
        assert truncate_left([1, 2, 3], 5) == [1, 2, 3]

    def test_keeps_rightmost(self):
        assert truncate_left([1, 2, 3, 4], 2) == [3, 4]

    def test_zero_limit(self):
        assert truncate_left([1, 2], 0) == []

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            truncate_left([1], -1)

    def test_returns_copy(self):
        tokens = [1, 2, 3]
        result = truncate_left(tokens, 5)
        result.append(4)
        assert tokens == [1, 2, 3]


class TestSplitWords:
    def test_yaml_ish_text(self):
        assert split_words("name: nginx-stable v1.2") == ["name", "nginx-stable", "v1.2"]

    def test_empty(self):
        assert split_words("  ") == []


class TestStableHash:
    def test_stable(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_distinct(self):
        assert stable_hash("abc") != stable_hash("abd")
