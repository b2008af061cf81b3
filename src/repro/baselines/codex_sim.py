"""Codex-Davinci-002 simulator.

The paper evaluates OpenAI Codex (175B) few-shot and observes two things our
simulator must reproduce:

* strong few-shot quality — Schema Correct / BLEU comparable to the best
  CodeGen baselines, Ansible Aware clearly above them;
* "the exact match is the highest of all models tested, which indicates
  that Codex likely saw large portions of our Galaxy dataset" — i.e.
  training-set contamination.

The stand-in is a retrieval-over-web-scale-memory model: it is seeded with
a large Ansible corpus *including a contamination fraction of the Galaxy
data itself* (test split included, exactly the leak the paper suspects),
and completes by nearest-neighbour recall with an n-gram fallback for
prompts it has never seen.  No API access required, deterministic, and
byte-for-byte recall on contaminated prompts yields the high EM signature.
"""

from __future__ import annotations

from repro.baselines.ngram import NgramLM
from repro.baselines.retrieval import RetrievalBaseline
from repro.dataset.corpus import Corpus
from repro.dataset.finetune import extract_samples
from repro.tokenizer.bpe import BpeTokenizer
from repro.utils.rng import SeededRng

# Similarity below which the simulator falls back to n-gram continuation.
# High: only near-verbatim memory hits recall byte-exact completions.
RECALL_THRESHOLD = 0.8

# Fraction of the Galaxy data assumed to have leaked into the pretraining
# scrape of a web-scale model.  Calibrated so the simulator's Exact Match
# sits clearly above the few-shot baselines (the paper's observation)
# without dominating the fine-tuned models.
DEFAULT_CONTAMINATION = 0.06

# Probability that a confident memory hit is reproduced *verbatim*.  A real
# LM reconstructs from weights rather than quoting storage, so even
# memorized content degrades; below fidelity the simulator falls back to
# its n-gram reconstruction.  Deterministic per prompt (hash-based).
RECALL_FIDELITY = 0.6


class CodexSimulator:
    """A 175B-parameter model's *behaviour*, reproduced with memory."""

    name = "Codex-Davinci-002 (sim)"
    size_label = "175B"
    context_window_label = 2048

    def __init__(self, tokenizer: BpeTokenizer, name: str | None = None, recall_fidelity: float = RECALL_FIDELITY):
        if name:
            self.name = name
        self.recall_fidelity = recall_fidelity
        self._retrieval = RetrievalBaseline("codex-memory")
        self._fallback = NgramLM(tokenizer, order=5, name="codex-fallback")

    def fit(
        self,
        web_corpus: Corpus,
        galaxy_corpus: Corpus | None = None,
        contamination: float = DEFAULT_CONTAMINATION,
        rng: SeededRng | None = None,
    ) -> "CodexSimulator":
        """Build the simulator's memory.

        ``web_corpus`` is the public Ansible content it certainly saw;
        ``galaxy_corpus`` with ``contamination`` controls how much of the
        evaluation dataset leaked into its memory.
        """
        rng = rng or SeededRng(0)
        web_samples = extract_samples(web_corpus)
        self._retrieval.index_samples(web_samples)
        self._fallback.fit(web_corpus.texts())
        if galaxy_corpus is not None and contamination > 0.0:
            leaked = [
                document
                for document in galaxy_corpus
                if rng.bernoulli(contamination)
            ]
            leaked_corpus = Corpus("codex-leak", leaked)
            self._retrieval.index_samples(extract_samples(leaked_corpus))
            self._fallback.fit(leaked_corpus.texts())
        return self

    def _recalls_verbatim(self, prompt: str) -> bool:
        import hashlib

        digest = hashlib.sha1(prompt.encode("utf-8")).digest()
        return (digest[0] / 255.0) < self.recall_fidelity

    def complete(self, prompt: str, max_new_tokens: int = 96) -> str:
        """TextCompleter interface: recall when confident (and with
        imperfect fidelity), else n-gram reconstruction."""
        similarity, completion = self._retrieval.nearest(prompt)
        if similarity >= RECALL_THRESHOLD and completion and self._recalls_verbatim(prompt):
            return completion
        return self._fallback.complete(prompt, max_new_tokens=max_new_tokens)
