"""Small text-manipulation helpers used across the library."""

from __future__ import annotations


def indent_block(text: str, spaces: int) -> str:
    """Indent every non-empty line of ``text`` by ``spaces`` spaces."""
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else line for line in text.split("\n"))


def stable_hash(text: str) -> str:
    """A short stable content hash used for exact-match deduplication."""
    import hashlib

    return hashlib.sha1(text.encode("utf-8")).hexdigest()
