"""Exact Match metric.

A prediction scores 1 when it is textually identical to the reference after
whitespace canonicalization (trailing spaces and surrounding blank lines do
not count as differences — both sides of the comparison already went through
the pipeline's formatting standardization, so remaining differences are
real).
"""

from __future__ import annotations


def normalize_text(text: str) -> str:
    """Canonicalize whitespace: LF newlines, no trailing spaces, no
    surrounding blank lines."""
    lines = [line.rstrip() for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def exact_match(reference: str, prediction: str) -> bool:
    """Whitespace-canonical textual equality."""
    return normalize_text(reference) == normalize_text(prediction)
