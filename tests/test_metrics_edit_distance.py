"""Edit-distance diagnostics, kept beside their tests.

The paper motivates Ansible Aware by "how many changes must be made to
correct it": a token-level Levenshtein distance, the derived correction
effort (edits per reference token) and a line-level diff summary quantify
that.  No table reports them, so they live here rather than in
:mod:`repro.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.bleu import tokenize


def levenshtein(reference: list[str], prediction: list[str]) -> int:
    """Token-level Levenshtein distance (insert/delete/substitute)."""
    previous = list(range(len(prediction) + 1))
    for row_index, reference_token in enumerate(reference, start=1):
        current = [row_index] + [0] * len(prediction)
        for column_index, prediction_token in enumerate(prediction, start=1):
            current[column_index] = min(
                previous[column_index] + 1,
                current[column_index - 1] + 1,
                previous[column_index - 1] + (reference_token != prediction_token),
            )
        previous = current
    return previous[-1]


def correction_effort(reference: str, prediction: str) -> float:
    """Edits needed per reference token, in [0, inf); 0 = already correct."""
    reference_tokens, prediction_tokens = tokenize(reference), tokenize(prediction)
    if not reference_tokens:
        return float(len(prediction_tokens))
    return levenshtein(reference_tokens, prediction_tokens) / len(reference_tokens)


def mean_correction_effort(references: list[str], predictions: list[str]) -> float:
    if len(references) != len(predictions):
        raise ValueError("references and predictions must have equal length")
    if not references:
        return 0.0
    return sum(map(correction_effort, references, predictions)) / len(references)


@dataclass(frozen=True)
class LineDiff:
    matching_lines: int
    missing_lines: int
    extra_lines: int
    changed_lines: int

    @property
    def total_reference_lines(self) -> int:
        return self.matching_lines + self.missing_lines + self.changed_lines


def line_diff(reference: str, prediction: str) -> LineDiff:
    """Greedy line-level diff: exact matches first, then positional pairing;
    right edges stripped, indentation significant."""

    def lines(text: str) -> list[str]:
        return [line.rstrip() for line in text.rstrip("\n").split("\n")] if text.strip() else []

    remaining = lines(prediction)
    matching = 0
    unmatched: list[str] = []
    for line in lines(reference):
        if line in remaining:
            remaining.remove(line)
            matching += 1
        else:
            unmatched.append(line)
    changed = min(len(unmatched), len(remaining))
    return LineDiff(matching, len(unmatched) - changed, len(remaining) - changed, changed)


def token_edit_distance(reference: str, prediction: str) -> int:
    return levenshtein(tokenize(reference), tokenize(prediction))


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein(["a", "b"], ["a", "b"]) == 0

    def test_empty_cases(self):
        assert levenshtein([], ["a", "b"]) == 2
        assert levenshtein(["a"], []) == 1
        assert levenshtein([], []) == 0

    def test_substitution(self):
        assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_insertion_deletion(self):
        assert levenshtein(["a", "c"], ["a", "b", "c"]) == 1
        assert levenshtein(["a", "b", "c"], ["a", "c"]) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=8), st.lists(st.sampled_from("abc"), max_size=8))
    def test_metric_properties(self, a, b):
        distance = levenshtein(a, b)
        assert distance == levenshtein(b, a)  # symmetry
        assert distance >= abs(len(a) - len(b))  # lower bound
        assert distance <= max(len(a), len(b))  # upper bound
        assert (distance == 0) == (a == b)


class TestCorrectionEffort:
    def test_zero_for_correct(self):
        assert correction_effort("a: 1", "a: 1") == 0.0

    def test_scaled_by_reference_length(self):
        reference = "name: nginx state: present"
        effort = correction_effort(reference, reference.replace("nginx", "httpd"))
        assert 0.0 < effort < 0.5

    def test_empty_reference(self):
        assert correction_effort("", "") == 0.0
        assert correction_effort("", "a b") == 2.0

    def test_token_edit_distance_on_yaml(self):
        ref = "- name: t\n  apt:\n    name: nginx\n"
        pred = ref.replace("nginx", "httpd")
        assert token_edit_distance(ref, pred) == 1

    def test_mean(self):
        assert mean_correction_effort(["a", "a"], ["a", "b"]) == pytest.approx(
            correction_effort("a", "b") / 2
        )

    def test_mean_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_correction_effort(["a"], [])


class TestLineDiff:
    def test_identical(self):
        diff = line_diff("a\nb\n", "a\nb\n")
        assert diff.matching_lines == 2
        assert diff.missing_lines == diff.extra_lines == diff.changed_lines == 0

    def test_missing_line(self):
        diff = line_diff("a\nb\nc\n", "a\nc\n")
        assert diff.matching_lines == 2
        assert diff.missing_lines == 1

    def test_extra_line(self):
        diff = line_diff("a\n", "a\nb\n")
        assert diff.extra_lines == 1

    def test_changed_line_pairs_unmatched(self):
        diff = line_diff("a\nb\n", "a\nx\n")
        assert diff.changed_lines == 1
        assert diff.missing_lines == 0 and diff.extra_lines == 0

    def test_empty_prediction(self):
        diff = line_diff("a\nb\n", "")
        assert diff.missing_lines == 2
        assert diff.total_reference_lines == 2

    def test_indentation_significant(self):
        diff = line_diff("  a: 1\n", "a: 1\n")
        assert diff.matching_lines == 0
