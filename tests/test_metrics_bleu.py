"""Tests for repro.metrics.bleu."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.bleu import modified_precision, sentence_bleu, tokenize
from repro.metrics.report import EvalReport


class TestTokenize:
    def test_yaml_line(self):
        assert tokenize("name: nginx") == ["name", ":", "nginx"]

    def test_punctuation_split(self):
        assert tokenize("ansible.builtin.apt") == ["ansible", ".", "builtin", ".", "apt"]

    def test_indentation_ignored(self):
        assert tokenize("  a: 1") == tokenize("a: 1")


class TestModifiedPrecision:
    def test_full_match(self):
        ref = tokenize("a b c d")
        assert modified_precision(ref, ref, 1) == (4, 4)

    def test_clipping(self):
        # prediction repeats a token more often than the reference has it
        ref = ["the", "cat"]
        pred = ["the", "the", "the"]
        matches, total = modified_precision(ref, pred, 1)
        assert (matches, total) == (1, 3)

    def test_empty_prediction(self):
        assert modified_precision(["a"], [], 1) == (0, 0)


class TestSentenceBleu:
    def test_perfect(self):
        text = "- name: install nginx\n  apt:\n    name: nginx\n"
        assert sentence_bleu(text, text) == pytest.approx(100.0)

    def test_empty_prediction(self):
        assert sentence_bleu("something", "") == 0.0

    def test_empty_reference(self):
        assert sentence_bleu("", "something") == 0.0

    def test_partial_lower_than_perfect(self):
        ref = "- name: install nginx\n  apt:\n    name: nginx\n    state: present\n"
        partial = "- name: install nginx\n  apt:\n    name: apache\n    state: absent\n"
        score = sentence_bleu(ref, partial)
        assert 0.0 < score < 100.0

    def test_brevity_penalty_applies(self):
        ref = "a b c d e f g h"
        short = "a b"
        long_pred = "a b c d e f g h"
        assert sentence_bleu(ref, short) < sentence_bleu(ref, long_pred)

    def test_order_sensitive(self):
        ref = "a b c d e"
        scrambled = "e d c b a"
        assert sentence_bleu(ref, scrambled) < sentence_bleu(ref, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="abc :\n", min_size=4, max_size=40))
    def test_bounds(self, text):
        score = sentence_bleu(text, text[: max(2, len(text) // 2)])
        assert 0.0 <= score <= 100.0


def corpus_score(references: list[str], predictions: list[str]) -> float:
    """The BLEU the tables report over a corpus: the mean sentence score."""
    report = EvalReport("corpus")
    for reference, prediction in zip(references, predictions, strict=True):
        report.add(reference, prediction)
    return report.bleu


class TestCorpusBleu:
    def test_perfect_corpus(self):
        refs = ["a b c d", "e f g h"]
        assert corpus_score(refs, refs) == pytest.approx(100.0)

    def test_empty_lists(self):
        assert corpus_score([], []) == 0.0

    def test_zero_when_no_4gram_matches(self):
        assert corpus_score(["a b c d e"], ["x y z w v"]) == 0.0

    def test_average_sentence_close_to_corpus_on_uniform_data(self):
        refs = ["a b c d e f", "a b c d e f"]
        preds = ["a b c d e f", "a b c d e f"]
        assert corpus_score(refs, preds) == pytest.approx(sentence_bleu(refs[0], preds[0]))


class TestAgainstKnownValues:
    def test_half_overlap_unigram_dominated(self):
        """Hand-computed check: 8-token prediction, all unigrams match,
        half the higher n-grams match."""
        ref = "a b c d e f g h"
        pred = "a b c d h g f e"
        score = sentence_bleu(ref, pred, smooth=False)
        # p1=1.0, p2=4/7 (ab,bc,cd + ... let's just bound it)
        assert 30.0 < score < 80.0
