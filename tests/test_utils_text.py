"""Tests for repro.utils.text."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.utils.text import indent_block, stable_hash


class TestIndentDedent:
    def test_indent_skips_blank_lines(self):
        assert indent_block("a\n\nb", 2) == "  a\n\n  b"

    @given(st.text(alphabet="ab \n", max_size=60), st.integers(min_value=1, max_value=6))
    def test_indent_then_dedent_preserves_stripped_lines(self, text, n):
        indented = indent_block(text, n)
        assert [line.strip() for line in indented.split("\n")] == [
            line.strip() for line in text.split("\n")
        ]


class TestStableHash:
    def test_stable(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_distinct(self):
        assert stable_hash("abc") != stable_hash("abd")
