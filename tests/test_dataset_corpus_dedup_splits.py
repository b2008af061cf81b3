"""Tests for corpus containers, dedup and splits."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataset.corpus import ANSIBLE, Corpus, Document, GENERIC
from repro.dataset.dedup import dedup_documents, dedup_samples_across_splits
from repro.dataset.splits import split_corpus
from repro.errors import DatasetError, EmptyCorpusError
from repro.utils.rng import SeededRng


def summary_rows(corpus: Corpus) -> list[list[object]]:
    """Rows shaped like the paper's Table 1: source, count, type."""
    counts = Counter((document.source, document.yaml_type) for document in corpus)
    return [[source, count, yaml_type] for (source, yaml_type), count in sorted(counts.items())]


def dedup_samples(samples: list) -> list:
    """Keep the first sample per distinct target text."""
    seen: set[str] = set()
    kept = []
    for sample in samples:
        if sample.target_text not in seen:
            seen.add(sample.target_text)
            kept.append(sample)
    return kept


def make_corpus(contents: list[str], source: str = "test") -> Corpus:
    return Corpus(
        "c",
        [Document(f"{source}/{i}", source, ANSIBLE, content) for i, content in enumerate(contents)],
    )


class TestCorpus:
    def test_counts(self):
        corpus = Corpus(
            "c",
            [
                Document("a", "galaxy", ANSIBLE, "x", kind="tasks"),
                Document("b", "github", GENERIC, "y", kind="generic"),
                Document("c", "github", ANSIBLE, "z", kind="playbook"),
            ],
        )
        assert corpus.counts_by_source() == {"galaxy": 1, "github": 2}
        assert corpus.counts_by_kind() == {"tasks": 1, "generic": 1, "playbook": 1}

    def test_filters(self):
        corpus = make_corpus(["a", "b"]).merged_with(
            Corpus("g", [Document("g/0", "github", GENERIC, "c")])
        )
        assert corpus.counts_by_source() == {"test": 2, "github": 1}
        assert [document.yaml_type for document in corpus] == [ANSIBLE, ANSIBLE, GENERIC]

    def test_require_nonempty(self):
        with pytest.raises(EmptyCorpusError):
            Corpus("empty").require_nonempty()
        assert make_corpus(["a"]).require_nonempty()

    def test_summary_rows(self):
        corpus = make_corpus(["a", "b"], source="galaxy")
        assert summary_rows(corpus) == [["galaxy", 2, ANSIBLE]]


class TestDedupDocuments:
    def test_removes_exact_duplicates(self):
        corpus = make_corpus(["same", "same", "different"])
        deduped = dedup_documents(corpus)
        assert [d.content for d in deduped] == ["same", "different"]

    def test_keeps_first_occurrence(self):
        corpus = make_corpus(["x", "y", "x"])
        deduped = dedup_documents(corpus)
        assert deduped.documents[0].identifier == "test/0"

    def test_noop_when_unique(self):
        corpus = make_corpus(["a", "b"])
        assert len(dedup_documents(corpus)) == 2


class _Sample:
    def __init__(self, target_text: str):
        self.target_text = target_text


class TestDedupSamples:
    def test_by_target(self):
        samples = [_Sample("a"), _Sample("a"), _Sample("b")]
        assert len(dedup_samples(samples)) == 2

    def test_across_splits_prefers_earlier_split(self):
        splits = {
            "test": [_Sample("shared"), _Sample("test-only")],
            "train": [_Sample("shared"), _Sample("train-only")],
        }
        result = dedup_samples_across_splits(splits)
        assert [s.target_text for s in result["test"]] == ["shared", "test-only"]
        assert [s.target_text for s in result["train"]] == ["train-only"]


class TestSplitCorpus:
    def test_fractions(self):
        corpus = make_corpus([str(i) for i in range(100)])
        splits = split_corpus(corpus, SeededRng(0))
        assert splits.sizes() == {"train": 80, "validation": 10, "test": 10}

    def test_partition_is_exact(self):
        corpus = make_corpus([str(i) for i in range(37)])
        splits = split_corpus(corpus, SeededRng(1))
        all_ids = (
            [d.identifier for d in splits.train]
            + [d.identifier for d in splits.validation]
            + [d.identifier for d in splits.test]
        )
        assert sorted(all_ids) == sorted(d.identifier for d in corpus)

    def test_deterministic(self):
        corpus = make_corpus([str(i) for i in range(20)])
        a = split_corpus(corpus, SeededRng(5))
        b = split_corpus(corpus, SeededRng(5))
        assert [d.identifier for d in a.train] == [d.identifier for d in b.train]

    def test_bad_fractions(self):
        corpus = make_corpus(["a"])
        with pytest.raises(DatasetError):
            split_corpus(corpus, SeededRng(0), train_fraction=0.9, validation_fraction=0.2)
        with pytest.raises(DatasetError):
            split_corpus(corpus, SeededRng(0), train_fraction=0.0)
