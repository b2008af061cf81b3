"""Shared utilities: seeded randomness, text helpers, tables, timing."""

from repro.utils.rng import SeededRng, derive_seed
from repro.utils.tables import format_table
from repro.utils.text import indent_block, stable_hash
from repro.utils.timing import Stopwatch

__all__ = [
    "SeededRng",
    "derive_seed",
    "format_table",
    "indent_block",
    "stable_hash",
    "Stopwatch",
]
