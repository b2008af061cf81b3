"""Exact-match deduplication, at file level and at sample level.

The paper: "We de-duplicated the dataset using a simple exact match
criterion" (pretraining, file level) and "Exact match deduplication is
performed at both the file and sample level across all splits"
(fine-tuning).  Cross-split sample dedup removes train/test leakage, which
is what keeps the fine-tuned EM numbers honest.
"""

from __future__ import annotations

from repro.dataset.corpus import Corpus, Document
from repro.utils.text import stable_hash


def dedup_documents(corpus: Corpus) -> Corpus:
    """Keep the first occurrence of each distinct content string."""
    seen: set[str] = set()
    kept: list[Document] = []
    for document in corpus.documents:
        digest = document.content_hash
        if digest in seen:
            continue
        seen.add(digest)
        kept.append(document)
    return Corpus(name=corpus.name, documents=kept)


def dedup_samples_across_splits(splits: dict[str, list], key=lambda sample: sample.target_text) -> dict[str, list]:
    """Dedup samples across all splits, preferring earlier splits.

    Call with splits ordered test → validation → train to guarantee that a
    sample appearing in several splits is *kept in the evaluation split* and
    dropped from training (no leakage into train).
    """
    seen: set[str] = set()
    result: dict[str, list] = {}
    for split_name, samples in splits.items():
        kept = []
        for sample in samples:
            digest = stable_hash(key(sample))
            if digest in seen:
                continue
            seen.add(digest)
            kept.append(sample)
        result[split_name] = kept
    return result
