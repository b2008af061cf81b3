"""Tests for repro.baselines (retrieval, n-gram, Codex simulator)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.baselines.codex_sim import CodexSimulator, RECALL_THRESHOLD
from repro.baselines.ngram import NgramLM
from repro.baselines.retrieval import RetrievalBaseline, jaccard
from repro.dataset.corpus import Corpus
from repro.dataset.finetune import extract_samples
from repro.tokenizer.bpe import BpeTokenizer


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset({"a"}), frozenset({"a"})) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_partial(self):
        assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(1 / 3)


class TestRetrievalBaseline:
    def test_exact_recall(self):
        baseline = RetrievalBaseline()
        baseline.index("- name: Install nginx\n", "  apt:\n    name: nginx\n")
        baseline.index("- name: Start redis\n", "  service:\n    name: redis\n")
        assert "nginx" in baseline.complete("- name: Install nginx\n")
        assert "redis" in baseline.complete("- name: Start redis\n")

    def test_nearest_score(self):
        baseline = RetrievalBaseline()
        baseline.index("- name: Install nginx\n", "X")
        score, completion = baseline.nearest("- name: Install nginx\n")
        assert score == 1.0 and completion == "X"

    def test_empty_store(self):
        baseline = RetrievalBaseline()
        assert baseline.complete("anything") == ""
        assert baseline.nearest("anything") == (0.0, "")

    def test_index_samples(self, finetune_dataset):
        baseline = RetrievalBaseline()
        baseline.index_samples(finetune_dataset.train[:10])
        assert len(baseline) == 10

    def test_fingerprint_uses_prompt_tail(self):
        baseline = RetrievalBaseline()
        long_context = "\n".join(f"line {i}" for i in range(100))
        baseline.index(long_context + "\n- name: target task\n", "FOUND")
        score, completion = baseline.nearest("other prefix\n- name: target task\n")
        assert completion == "FOUND"
        assert score > 0


@pytest.fixture(scope="module")
def shared_tokenizer(galaxy_corpus):
    return BpeTokenizer.train(galaxy_corpus.texts()[:40], vocab_size=400)


class TestNgram:
    def test_order_validation(self, shared_tokenizer):
        with pytest.raises(ValueError):
            NgramLM(shared_tokenizer, order=1)

    def test_memorizes_repeated_text(self, shared_tokenizer):
        model = NgramLM(shared_tokenizer, order=4).fit(["abc abc abc abc"] * 5)
        out = model.complete("abc abc ", max_new_tokens=8)
        assert "abc" in out

    def test_untrained_returns_empty(self, shared_tokenizer):
        model = NgramLM(shared_tokenizer, order=3)
        assert model.complete("anything") == ""

    def test_next_token_backoff(self, shared_tokenizer):
        model = NgramLM(shared_tokenizer, order=3).fit(["x y z"] * 3)
        # unseen context backs off to unigram (most frequent token)
        assert model.next_token([999999 % shared_tokenizer.vocab_size]) is not None

    def test_stops_at_eot(self, shared_tokenizer):
        model = NgramLM(shared_tokenizer, order=3).fit(["short"])
        out = model.complete("short", max_new_tokens=50)
        assert len(out) < 400


class TestCodexSimulator:
    def test_contaminated_recall_gives_exact_match(self, galaxy_corpus, shared_tokenizer, rng):
        codex = CodexSimulator(shared_tokenizer, recall_fidelity=1.0)
        codex.fit(galaxy_corpus, galaxy_corpus, contamination=1.0, rng=rng.child("codex"))
        samples = extract_samples(galaxy_corpus)[:5]
        hits = sum(codex.complete(s.input_text) == s.target_text for s in samples)
        assert hits >= 3  # byte-for-byte recall on leaked content

    def test_recall_fidelity_degrades_exactness(self, galaxy_corpus, shared_tokenizer, rng):
        """Imperfect memory: lower fidelity means fewer verbatim recalls."""
        samples = extract_samples(galaxy_corpus)[:20]
        perfect = CodexSimulator(shared_tokenizer, recall_fidelity=1.0)
        perfect.fit(galaxy_corpus, galaxy_corpus, contamination=1.0, rng=rng.child("c1"))
        lossy = CodexSimulator(shared_tokenizer, recall_fidelity=0.0)
        lossy.fit(galaxy_corpus, galaxy_corpus, contamination=1.0, rng=rng.child("c1"))
        perfect_hits = sum(perfect.complete(s.input_text) == s.target_text for s in samples)
        lossy_hits = sum(lossy.complete(s.input_text) == s.target_text for s in samples)
        assert lossy_hits < perfect_hits

    def test_no_contamination_lowers_recall(self, galaxy_corpus, shared_tokenizer, rng):
        documents = galaxy_corpus.documents
        half = len(documents) // 2
        codex = CodexSimulator(shared_tokenizer).fit(Corpus("web", documents[:half]))
        unseen = extract_samples(Corpus("unseen", documents[half:]))[:5]
        exact = sum(codex.complete(s.input_text) == s.target_text for s in unseen)
        assert exact <= 4  # mostly not byte-exact on unseen prompts

    def test_fallback_on_unrelated_prompt(self, galaxy_corpus, shared_tokenizer):
        codex = CodexSimulator(shared_tokenizer).fit(galaxy_corpus)
        out = codex.complete("- name: zzz qqq completely unrelated vvv\n")
        assert isinstance(out, str)

    def test_threshold_constant_sane(self):
        assert 0.0 < RECALL_THRESHOLD < 1.0

    def test_name_and_labels(self, shared_tokenizer):
        codex = CodexSimulator(shared_tokenizer)
        assert codex.size_label == "175B"
        assert codex.context_window_label == 2048


class TestNgramTieBreaking:
    """Regression: Counter.most_common broke count ties by insertion order."""

    def test_context_ties_break_to_smallest_token_id(self, shared_tokenizer):
        lm = NgramLM(shared_tokenizer, order=2)
        # Insert the higher token id first: most_common(1) would return it.
        lm._tables[1][(7,)] = Counter({9: 3, 4: 3, 11: 1})
        assert lm.next_token([7]) == 4

    def test_unigram_ties_break_to_smallest_token_id(self, shared_tokenizer):
        lm = NgramLM(shared_tokenizer, order=2)
        lm._unigrams = Counter({12: 5, 3: 5, 8: 2})
        assert lm.next_token([99]) == 3

    def test_insertion_order_is_irrelevant(self, shared_tokenizer):
        forward = NgramLM(shared_tokenizer, order=2)
        forward._tables[1][(1,)] = Counter({2: 4, 6: 4})
        reversed_lm = NgramLM(shared_tokenizer, order=2)
        reversed_lm._tables[1][(1,)] = Counter({6: 4, 2: 4})
        assert forward.next_token([1]) == reversed_lm.next_token([1]) == 2

    def test_higher_count_still_wins(self, shared_tokenizer):
        lm = NgramLM(shared_tokenizer, order=2)
        lm._tables[1][(5,)] = Counter({2: 1, 30: 6})
        assert lm.next_token([5]) == 30


class TestRetrievalInvertedIndex:
    """The token->entry index must reproduce the brute-force scan exactly."""

    @staticmethod
    def _populated(seed: int = 0) -> RetrievalBaseline:
        rng = random.Random(seed)
        words = ["nginx", "redis", "install", "service", "copy", "state", "name", "apt"]
        baseline = RetrievalBaseline()
        for index in range(40):
            prompt = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
            baseline.index(f"- name: {prompt}\n", f"completion-{index}")
        baseline.index("\n", "empty-fingerprint")  # no word tokens at all
        return baseline

    def test_matches_brute_force_on_random_queries(self):
        baseline = self._populated()
        rng = random.Random(1)
        words = ["nginx", "redis", "install", "service", "copy", "unseen", "zzz"]
        for _ in range(60):
            query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            assert baseline.nearest(query) == baseline.nearest_scan(query)

    def test_empty_query_falls_back_to_scan(self):
        baseline = self._populated()
        # "\n###\n" has no [A-Za-z0-9_] tokens: empty fingerprint, which
        # scores 1.0 against the empty-fingerprint entry.
        assert baseline.nearest("\n###\n") == baseline.nearest_scan("\n###\n")
        assert baseline.nearest("\n###\n")[0] == 1.0

    def test_no_candidate_overlap_returns_first_entry(self):
        baseline = RetrievalBaseline()
        baseline.index("- name: install nginx\n", "first")
        baseline.index("- name: copy config\n", "second")
        assert baseline.nearest("qqq zzz vvv") == (0.0, "first")
        assert baseline.nearest("qqq zzz vvv") == baseline.nearest_scan("qqq zzz vvv")

    def test_tie_breaks_to_earliest_entry(self):
        baseline = RetrievalBaseline()
        baseline.index("alpha beta", "early")
        baseline.index("alpha beta", "late")  # identical fingerprint
        assert baseline.nearest("alpha beta") == (1.0, "early")

    def test_empty_store(self):
        assert RetrievalBaseline().nearest("anything") == (0.0, "")
